#ifndef MLCASK_DATA_SCHEMA_H_
#define MLCASK_DATA_SCHEMA_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sha256.h"
#include "common/status.h"

namespace mlcask::data {

/// Column value types supported by Table.
enum class ColumnType : uint8_t {
  kDouble = 0,
  kInt = 1,
  kString = 2,
};

const char* ColumnTypeName(ColumnType t);

/// One column's name and type.
struct FieldSpec {
  std::string name;
  ColumnType type = ColumnType::kDouble;

  bool operator==(const FieldSpec& other) const {
    return name == other.name && type == other.type;
  }
};

/// The schema of a dataset or component output. Implements the paper's
/// schema-hash proposal (Sec. IV-B): "all the column headers are extracted,
/// standardized, sorted, and then concatenated into a single flat vector",
/// then hashed with SHA-256. Non-relational data carries its determining
/// meta information (e.g. image shape, vocabulary size) in `meta`, which is
/// folded into the hash the same way.
class DataSchema {
 public:
  DataSchema() = default;
  explicit DataSchema(std::vector<FieldSpec> fields,
                      std::map<std::string, std::string> meta = {})
      : fields_(std::move(fields)), meta_(std::move(meta)) {}

  const std::vector<FieldSpec>& fields() const { return fields_; }
  const std::map<std::string, std::string>& meta() const { return meta_; }

  void SetMeta(std::string key, std::string value) {
    meta_[std::move(key)] = std::move(value);
  }

  size_t num_fields() const { return fields_.size(); }

  /// Index of the field with `name`, or -1.
  int FieldIndex(const std::string& name) const;

  /// The canonical flat vector the paper describes: headers lower-cased,
  /// trimmed, tagged with their type, sorted, and joined. Meta entries are
  /// appended as "key=value" pairs (sorted by key).
  std::string Canonicalize() const;

  /// SHA-256 of Canonicalize().
  Hash256 SchemaHash() const;

  /// First 8 bytes of the schema hash as an integer — the compact schema id
  /// carried in component records and compatibility checks.
  uint64_t ShortId() const;

  bool operator==(const DataSchema& other) const {
    return fields_ == other.fields_ && meta_ == other.meta_;
  }

 private:
  std::vector<FieldSpec> fields_;
  std::map<std::string, std::string> meta_;
};

}  // namespace mlcask::data

#endif  // MLCASK_DATA_SCHEMA_H_
