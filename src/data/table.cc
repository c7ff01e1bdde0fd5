#include "data/table.h"

#include <cstring>

namespace mlcask::data {

size_t Column::size() const {
  switch (type) {
    case ColumnType::kDouble:
      return doubles.size();
    case ColumnType::kInt:
      return ints.size();
    case ColumnType::kString:
      return strings.size();
  }
  return 0;
}

Status Table::CheckLength(size_t len) const {
  if (!columns_.empty() && len != num_rows_) {
    return Status::InvalidArgument(
        "column length " + std::to_string(len) + " does not match table rows " +
        std::to_string(num_rows_));
  }
  return Status::Ok();
}

Status Table::AddDoubleColumn(std::string name, std::vector<double> values) {
  MLCASK_RETURN_IF_ERROR(CheckLength(values.size()));
  if (HasColumn(name)) {
    return Status::AlreadyExists("column '" + name + "' already exists");
  }
  num_rows_ = values.size();
  Column c;
  c.name = std::move(name);
  c.type = ColumnType::kDouble;
  c.doubles = std::move(values);
  columns_.push_back(std::move(c));
  return Status::Ok();
}

Status Table::AddIntColumn(std::string name, std::vector<int64_t> values) {
  MLCASK_RETURN_IF_ERROR(CheckLength(values.size()));
  if (HasColumn(name)) {
    return Status::AlreadyExists("column '" + name + "' already exists");
  }
  num_rows_ = values.size();
  Column c;
  c.name = std::move(name);
  c.type = ColumnType::kInt;
  c.ints = std::move(values);
  columns_.push_back(std::move(c));
  return Status::Ok();
}

Status Table::AddStringColumn(std::string name,
                              std::vector<std::string> values) {
  MLCASK_RETURN_IF_ERROR(CheckLength(values.size()));
  if (HasColumn(name)) {
    return Status::AlreadyExists("column '" + name + "' already exists");
  }
  num_rows_ = values.size();
  Column c;
  c.name = std::move(name);
  c.type = ColumnType::kString;
  c.strings = std::move(values);
  columns_.push_back(std::move(c));
  return Status::Ok();
}

StatusOr<const Column*> Table::GetColumn(const std::string& name) const {
  for (const Column& c : columns_) {
    if (c.name == name) return &c;
  }
  return Status::NotFound("column '" + name + "' not in table");
}

bool Table::HasColumn(const std::string& name) const {
  for (const Column& c : columns_) {
    if (c.name == name) return true;
  }
  return false;
}

Status Table::DropColumn(const std::string& name) {
  for (auto it = columns_.begin(); it != columns_.end(); ++it) {
    if (it->name == name) {
      columns_.erase(it);
      if (columns_.empty()) num_rows_ = 0;
      return Status::Ok();
    }
  }
  return Status::NotFound("column '" + name + "' not in table");
}

DataSchema Table::schema() const {
  std::vector<FieldSpec> fields;
  fields.reserve(columns_.size());
  for (const Column& c : columns_) {
    fields.push_back({c.name, c.type});
  }
  return DataSchema(std::move(fields), meta_);
}

void Table::SetMeta(std::string key, std::string value) {
  meta_[std::move(key)] = std::move(value);
}

StatusOr<std::vector<double>> Table::ToRowMajor(
    const std::vector<std::string>& column_names) const {
  std::vector<const Column*> cols;
  cols.reserve(column_names.size());
  for (const std::string& name : column_names) {
    MLCASK_ASSIGN_OR_RETURN(const Column* c, GetColumn(name));
    if (c->type != ColumnType::kDouble) {
      return Status::InvalidArgument("column '" + name + "' is not double");
    }
    cols.push_back(c);
  }
  std::vector<double> out;
  out.reserve(num_rows_ * cols.size());
  for (size_t r = 0; r < num_rows_; ++r) {
    for (const Column* c : cols) {
      out.push_back(c->doubles[r]);
    }
  }
  return out;
}

std::vector<std::string> Table::DoubleColumnNames() const {
  std::vector<std::string> out;
  for (const Column& c : columns_) {
    if (c.type == ColumnType::kDouble) out.push_back(c.name);
  }
  return out;
}

namespace {

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutStr(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  StatusOr<uint64_t> U64() {
    if (remaining() < 8) return Truncated();
    uint64_t v = LoadU64(pos_);
    pos_ += 8;
    return v;
  }

  StatusOr<std::string> Str() {
    MLCASK_ASSIGN_OR_RETURN(uint64_t len, U64());
    if (len > remaining()) return Truncated();
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  /// `count` 8-byte words as doubles or int64s (the word's bits are the
  /// value's bits), bounds-checked once for the whole run.
  template <typename T>
  StatusOr<std::vector<T>> Words(uint64_t count) {
    static_assert(sizeof(T) == 8, "8-byte words only");
    MLCASK_RETURN_IF_ERROR(CheckFits(count, 8));
    std::vector<T> values(count);
    for (size_t i = 0; i < values.size(); ++i) {
      const uint64_t bits = LoadU64(pos_ + 8 * i);
      std::memcpy(&values[i], &bits, 8);
    }
    pos_ += 8 * values.size();
    return values;
  }

  /// Corruption unless the unread bytes can hold `count` items of at least
  /// `min_bytes` each — checked before sizing anything by `count`.
  Status CheckFits(uint64_t count, size_t min_bytes) const {
    if (count > remaining() / min_bytes) return Truncated();
    return Status::Ok();
  }

  StatusOr<uint8_t> Byte() {
    if (remaining() < 1) return Truncated();
    return static_cast<uint8_t>(bytes_[pos_++]);
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  size_t remaining() const { return bytes_.size() - pos_; }

  uint64_t LoadU64(size_t at) const {
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<uint8_t>(bytes_[at + static_cast<size_t>(i)]);
    }
    return v;
  }

  Status Truncated() const {
    return Status::Corruption("truncated table at offset " +
                              std::to_string(pos_));
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

constexpr uint64_t kTableMagic = 0x4d4c544231ULL;  // "MLTB1"

}  // namespace

std::string Table::Serialize() const {
  std::string out;
  PutU64(&out, kTableMagic);
  PutU64(&out, num_rows_);
  PutU64(&out, columns_.size());
  PutU64(&out, meta_.size());
  for (const auto& [k, v] : meta_) {
    PutStr(&out, k);
    PutStr(&out, v);
  }
  for (const Column& c : columns_) {
    PutStr(&out, c.name);
    out.push_back(static_cast<char>(c.type));
    switch (c.type) {
      case ColumnType::kDouble:
        for (double d : c.doubles) {
          uint64_t bits;
          std::memcpy(&bits, &d, 8);
          PutU64(&out, bits);
        }
        break;
      case ColumnType::kInt:
        for (int64_t v : c.ints) PutU64(&out, static_cast<uint64_t>(v));
        break;
      case ColumnType::kString:
        for (const std::string& s : c.strings) PutStr(&out, s);
        break;
    }
  }
  return out;
}

StatusOr<Table> Table::Deserialize(std::string_view bytes) {
  Reader r(bytes);
  MLCASK_ASSIGN_OR_RETURN(uint64_t magic, r.U64());
  if (magic != kTableMagic) {
    return Status::Corruption("bad table magic");
  }
  MLCASK_ASSIGN_OR_RETURN(uint64_t num_rows, r.U64());
  MLCASK_ASSIGN_OR_RETURN(uint64_t num_cols, r.U64());
  MLCASK_ASSIGN_OR_RETURN(uint64_t num_meta, r.U64());
  Table t;
  for (uint64_t i = 0; i < num_meta; ++i) {
    MLCASK_ASSIGN_OR_RETURN(std::string k, r.Str());
    MLCASK_ASSIGN_OR_RETURN(std::string v, r.Str());
    t.SetMeta(std::move(k), std::move(v));
  }
  for (uint64_t ci = 0; ci < num_cols; ++ci) {
    MLCASK_ASSIGN_OR_RETURN(std::string name, r.Str());
    MLCASK_ASSIGN_OR_RETURN(uint8_t type_byte, r.Byte());
    if (type_byte > static_cast<uint8_t>(ColumnType::kString)) {
      return Status::Corruption("bad column type byte");
    }
    ColumnType type = static_cast<ColumnType>(type_byte);
    switch (type) {
      case ColumnType::kDouble: {
        MLCASK_ASSIGN_OR_RETURN(std::vector<double> values,
                                r.Words<double>(num_rows));
        MLCASK_RETURN_IF_ERROR(t.AddDoubleColumn(std::move(name), std::move(values)));
        break;
      }
      case ColumnType::kInt: {
        MLCASK_ASSIGN_OR_RETURN(std::vector<int64_t> values,
                                r.Words<int64_t>(num_rows));
        MLCASK_RETURN_IF_ERROR(t.AddIntColumn(std::move(name), std::move(values)));
        break;
      }
      case ColumnType::kString: {
        // Every string carries an 8-byte length prefix.
        MLCASK_RETURN_IF_ERROR(r.CheckFits(num_rows, 8));
        std::vector<std::string> values;
        values.reserve(num_rows);
        for (uint64_t i = 0; i < num_rows; ++i) {
          MLCASK_ASSIGN_OR_RETURN(std::string s, r.Str());
          values.push_back(std::move(s));
        }
        MLCASK_RETURN_IF_ERROR(t.AddStringColumn(std::move(name), std::move(values)));
        break;
      }
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after table payload");
  }
  return t;
}

uint64_t Table::ByteSize() const {
  uint64_t total = 0;
  for (const Column& c : columns_) {
    total += c.name.size() + 9;
    switch (c.type) {
      case ColumnType::kDouble:
        total += 8 * c.doubles.size();
        break;
      case ColumnType::kInt:
        total += 8 * c.ints.size();
        break;
      case ColumnType::kString:
        for (const std::string& s : c.strings) total += 8 + s.size();
        break;
    }
  }
  for (const auto& [k, v] : meta_) total += 16 + k.size() + v.size();
  return total;
}

bool Table::operator==(const Table& other) const {
  if (num_rows_ != other.num_rows_ || columns_.size() != other.columns_.size() ||
      meta_ != other.meta_) {
    return false;
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Column& a = columns_[i];
    const Column& b = other.columns_[i];
    if (a.name != b.name || a.type != b.type || a.doubles != b.doubles ||
        a.ints != b.ints || a.strings != b.strings) {
      return false;
    }
  }
  return true;
}

}  // namespace mlcask::data
