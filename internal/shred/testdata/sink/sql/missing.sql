CREATE TABLE "missing" (
  "x" VARCHAR(1024)
);
INSERT INTO "missing" ("x") VALUES
  (NULL);
