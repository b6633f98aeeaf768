// Interned identifiers.
//
// All SYNL identifiers (variables, fields, procedure names, class names) are
// interned into a SymbolTable so the analyses can compare and hash names as
// 32-bit ids. A Symbol is only meaningful relative to the table that created
// it; each Program owns one table.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace synat {

/// An interned string id. Value 0 is reserved for the empty/invalid symbol.
class Symbol {
 public:
  constexpr Symbol() = default;

  constexpr bool valid() const { return id_ != 0; }
  constexpr uint32_t id() const { return id_; }

  friend constexpr bool operator==(Symbol, Symbol) = default;
  friend constexpr auto operator<=>(Symbol, Symbol) = default;

 private:
  friend class SymbolTable;
  constexpr explicit Symbol(uint32_t id) : id_(id) {}
  uint32_t id_ = 0;
};

/// Interns strings; owned by a Program. Ids are handed out in first-intern
/// order. name() views the table's own std::string, which interning more
/// names can move (a short name lives inside it), so copy a name that must
/// outlive the next intern().
class SymbolTable {
 public:
  SymbolTable();
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;
  SymbolTable(SymbolTable&&) = default;
  SymbolTable& operator=(SymbolTable&&) = default;

  Symbol intern(std::string_view name);
  /// Returns the invalid symbol if `name` was never interned.
  Symbol lookup(std::string_view name) const;
  std::string_view name(Symbol s) const;
  size_t size() const { return names_.size(); }

 private:
  /// The slot of `name` in slots_: the one holding its id, or the empty
  /// slot where its probe ends.
  size_t find_slot(std::string_view name, size_t hash) const;
  void rehash(size_t capacity);

  std::vector<std::string> names_;  // index == id; names_[0] == ""
  std::vector<size_t> hashes_;      // hash of names_[id], for probes and rehash
  /// Open-addressed index of ids (0 = empty), linear probing, a power of
  /// two in size and at most half full.
  std::vector<uint32_t> slots_;
};

}  // namespace synat

template <>
struct std::hash<synat::Symbol> {
  size_t operator()(synat::Symbol s) const noexcept {
    return std::hash<uint32_t>{}(s.id());
  }
};
