CREATE TABLE "cross" (
  "isbn" VARCHAR(1024),
  "title" VARCHAR(1024),
  "author" VARCHAR(1024)
);
INSERT INTO "cross" ("isbn", "title", "author") VALUES
  ('1', 'T1', 'Ann'),
  ('1', 'T1', 'Bob'),
  ('1', NULL, 'Ann'),
  ('1', NULL, 'Bob'),
  ('2', NULL, 'Ann'),
  ('2', NULL, 'Bob'),
  (NULL, NULL, 'Ann');
INSERT INTO "cross" ("isbn", "title", "author") VALUES
  (NULL, NULL, 'Bob');
