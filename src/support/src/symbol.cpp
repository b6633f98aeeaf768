#include "synat/support/symbol.h"

#include <algorithm>

#include "synat/support/diag.h"

namespace synat {

SymbolTable::SymbolTable() {
  names_.emplace_back();  // id 0: invalid/empty
  hashes_.push_back(0);
}

size_t SymbolTable::find_slot(std::string_view name, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    uint32_t id = slots_[i];
    if (id == 0 || (hashes_[id] == hash && names_[id] == name)) return i;
  }
}

void SymbolTable::rehash(size_t capacity) {
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (uint32_t id = 1; id < names_.size(); ++id) {
    size_t i = hashes_[id] & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

Symbol SymbolTable::intern(std::string_view name) {
  if (name.empty()) return Symbol();
  if (2 * names_.size() >= slots_.size())
    rehash(std::max<size_t>(64, 2 * slots_.size()));
  const size_t hash = std::hash<std::string_view>{}(name);
  uint32_t& slot = slots_[find_slot(name, hash)];
  if (slot == 0) {
    slot = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    hashes_.push_back(hash);
  }
  return Symbol(slot);
}

Symbol SymbolTable::lookup(std::string_view name) const {
  if (name.empty() || slots_.empty()) return Symbol();
  return Symbol(
      slots_[find_slot(name, std::hash<std::string_view>{}(name))]);
}

std::string_view SymbolTable::name(Symbol s) const {
  SYNAT_ASSERT(s.id() < names_.size(), "symbol from a different table");
  return names_[s.id()];
}

}  // namespace synat
