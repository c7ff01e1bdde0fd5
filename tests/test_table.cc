#include "data/table.h"

#include <gtest/gtest.h>

#include "common/logging.h"

namespace mlcask::data {
namespace {

Table MakeSample() {
  Table t;
  MLCASK_CHECK_OK(t.AddDoubleColumn("age", {50.0, 61.5, 43.25}));
  MLCASK_CHECK_OK(t.AddIntColumn("visits", {3, 1, 7}));
  MLCASK_CHECK_OK(t.AddStringColumn("code", {"D001", "", "D017"}));
  t.SetMeta("domain", "test");
  return t;
}

TEST(TableTest, BasicShape) {
  Table t = MakeSample();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_FALSE(t.empty());
  EXPECT_TRUE(t.HasColumn("age"));
  EXPECT_FALSE(t.HasColumn("missing"));
}

TEST(TableTest, LengthMismatchRejected) {
  Table t;
  ASSERT_TRUE(t.AddDoubleColumn("a", {1, 2, 3}).ok());
  EXPECT_TRUE(t.AddDoubleColumn("b", {1, 2}).IsInvalidArgument());
  EXPECT_TRUE(t.AddIntColumn("c", {1}).IsInvalidArgument());
  EXPECT_TRUE(t.AddStringColumn("d", {"x", "y"}).IsInvalidArgument());
}

TEST(TableTest, DuplicateColumnRejected) {
  Table t;
  ASSERT_TRUE(t.AddDoubleColumn("a", {1}).ok());
  EXPECT_EQ(t.AddIntColumn("a", {2}).code(), StatusCode::kAlreadyExists);
}

TEST(TableTest, GetAndDropColumn) {
  Table t = MakeSample();
  auto col = t.GetColumn("visits");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->ints[2], 7);
  ASSERT_TRUE(t.DropColumn("visits").ok());
  EXPECT_FALSE(t.HasColumn("visits"));
  EXPECT_TRUE(t.DropColumn("visits").IsNotFound());
  EXPECT_TRUE(t.GetColumn("visits").status().IsNotFound());
}

TEST(TableTest, SchemaReflectsColumnsAndMeta) {
  Table t = MakeSample();
  DataSchema s = t.schema();
  EXPECT_EQ(s.num_fields(), 3u);
  EXPECT_EQ(s.FieldIndex("code"), 2);
  EXPECT_EQ(s.meta().at("domain"), "test");
}

TEST(TableTest, SchemaHashChangesWithColumns) {
  Table t = MakeSample();
  uint64_t before = t.schema().ShortId();
  ASSERT_TRUE(t.AddDoubleColumn("extra", {0, 0, 0}).ok());
  EXPECT_NE(t.schema().ShortId(), before);
}

TEST(TableTest, SchemaHashIgnoresColumnOrder) {
  // The paper's canonicalization sorts headers, so column order must not
  // change the hash.
  Table a, b;
  ASSERT_TRUE(a.AddDoubleColumn("x", {1}).ok());
  ASSERT_TRUE(a.AddIntColumn("y", {1}).ok());
  ASSERT_TRUE(b.AddIntColumn("y", {2}).ok());
  ASSERT_TRUE(b.AddDoubleColumn("x", {2}).ok());
  EXPECT_EQ(a.schema().SchemaHash(), b.schema().SchemaHash());
}

TEST(TableTest, SchemaHashStandardizesHeaders) {
  Table a, b;
  ASSERT_TRUE(a.AddDoubleColumn("Age ", {1}).ok());
  ASSERT_TRUE(b.AddDoubleColumn("age", {1}).ok());
  EXPECT_EQ(a.schema().SchemaHash(), b.schema().SchemaHash());
}

TEST(TableTest, SchemaHashSensitiveToTypeAndMeta) {
  Table a, b, c;
  ASSERT_TRUE(a.AddDoubleColumn("v", {1}).ok());
  ASSERT_TRUE(b.AddIntColumn("v", {1}).ok());
  EXPECT_NE(a.schema().SchemaHash(), b.schema().SchemaHash());
  ASSERT_TRUE(c.AddDoubleColumn("v", {1}).ok());
  c.SetMeta("shape", "16x16");
  EXPECT_NE(a.schema().SchemaHash(), c.schema().SchemaHash());
}

TEST(TableTest, SerializeDeserializeRoundTrip) {
  Table t = MakeSample();
  std::string bytes = t.Serialize();
  auto back = Table::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(TableTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Table::Deserialize("").ok());
  EXPECT_FALSE(Table::Deserialize("not a table").ok());
  Table t = MakeSample();
  std::string bytes = t.Serialize();
  bytes.resize(bytes.size() / 2);  // truncated
  EXPECT_FALSE(Table::Deserialize(bytes).ok());
  std::string trailing = t.Serialize() + "x";
  EXPECT_FALSE(Table::Deserialize(trailing).ok());

  // Hostile counts in otherwise well-formed headers must be refused as
  // corrupt, never trusted to size an allocation or move the read position.
  auto u64 = [](uint64_t v) {
    std::string s;
    for (int i = 0; i < 8; ++i) s.push_back(static_cast<char>(v >> (8 * i)));
    return s;
  };
  const std::string magic = u64(0x4d4c544231ULL);
  // One column holding one 8-byte value while the header claims `rows`.
  auto one_column = [&](uint64_t rows, ColumnType type) {
    return magic + u64(rows) + u64(1) + u64(0) + u64(4) + "ages" +
           std::string(1, static_cast<char>(type)) + u64(0x3ff0000000000000ULL);
  };
  for (ColumnType type :
       {ColumnType::kDouble, ColumnType::kInt, ColumnType::kString}) {
    for (uint64_t rows : {uint64_t{1} << 40, uint64_t{1} << 62}) {
      auto back = Table::Deserialize(one_column(rows, type));
      EXPECT_EQ(back.status().code(), StatusCode::kCorruption)
          << static_cast<int>(type) << " rows=" << rows;
    }
  }
  // num_meta = 2^62 and a first key length of 2^64 - 8: a bounds check that
  // wraps would rewind onto that same length field on every read.
  auto spin = Table::Deserialize(magic + u64(0) + u64(0) +
                                 u64(uint64_t{1} << 62) + u64(~uint64_t{7}));
  EXPECT_EQ(spin.status().code(), StatusCode::kCorruption);
}

TEST(TableTest, EmptyTableRoundTrip) {
  Table t;
  auto back = Table::Deserialize(t.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_EQ(back->num_columns(), 0u);
}

TEST(TableTest, ToRowMajorSelectsColumns) {
  Table t;
  ASSERT_TRUE(t.AddDoubleColumn("a", {1, 2}).ok());
  ASSERT_TRUE(t.AddDoubleColumn("b", {3, 4}).ok());
  ASSERT_TRUE(t.AddIntColumn("i", {9, 9}).ok());
  auto rm = t.ToRowMajor({"b", "a"});
  ASSERT_TRUE(rm.ok());
  EXPECT_EQ(*rm, (std::vector<double>{3, 1, 4, 2}));
  EXPECT_TRUE(t.ToRowMajor({"i"}).status().IsInvalidArgument());
  EXPECT_TRUE(t.ToRowMajor({"zz"}).status().IsNotFound());
}

TEST(TableTest, DoubleColumnNames) {
  Table t = MakeSample();
  EXPECT_EQ(t.DoubleColumnNames(), (std::vector<std::string>{"age"}));
}

TEST(TableTest, ByteSizeTracksPayload) {
  Table t = MakeSample();
  uint64_t base = t.ByteSize();
  ASSERT_TRUE(t.AddDoubleColumn("extra", {1, 2, 3}).ok());
  EXPECT_GT(t.ByteSize(), base);
}

}  // namespace
}  // namespace mlcask::data
