CREATE TABLE "chapter" (
  "inBook" VARCHAR(1024),
  "number" VARCHAR(1024),
  "name" VARCHAR(1024)
);
INSERT INTO "chapter" ("inBook", "number", "name") VALUES
  ('1', '1', 'Intro'),
  ('1', '2', 'Keys'),
  ('1', '3', NULL),
  ('1', '1', 'Preface'),
  ('2', NULL, NULL),
  (NULL, '1', 'Orphan');
