#include "chars/char_string.hpp"

#include <algorithm>

namespace mh {

CharString::CharString(std::vector<Symbol> symbols) : symbols_(std::move(symbols)) {
  rebuild_prefix_sums();
}

CharString CharString::parse(std::string_view text) {
  std::vector<Symbol> symbols;
  symbols.reserve(text.size());
  for (char c : text) {
    if (c == ' ') continue;  // allow readable spacing in literals
    symbols.push_back(symbol_from_char(c));
  }
  return CharString(std::move(symbols));
}

Symbol CharString::at(std::size_t slot) const {
  MH_REQUIRE_MSG(slot >= 1 && slot <= symbols_.size(), "slots are 1-indexed");
  return symbols_[slot - 1];
}

void CharString::push_back(Symbol s) {
  if (prefix_adv_.empty()) rebuild_prefix_sums();  // default-constructed object
  symbols_.push_back(s);
  prefix_adv_.push_back(prefix_adv_.back() + (is_adversarial(s) ? 1 : 0));
  prefix_hon_.push_back(prefix_hon_.back() + (is_honest(s) ? 1 : 0));
}

void CharString::rebuild_prefix_sums() {
  const std::size_t n = symbols_.size();
  prefix_adv_.assign(n + 1, 0);
  prefix_hon_.assign(n + 1, 0);
  for (std::size_t t = 1; t <= n; ++t) {
    prefix_adv_[t] = prefix_adv_[t - 1] + (is_adversarial(symbols_[t - 1]) ? 1 : 0);
    prefix_hon_[t] = prefix_hon_[t - 1] + (is_honest(symbols_[t - 1]) ? 1 : 0);
  }
}

std::size_t CharString::count(Symbol s, std::size_t lo, std::size_t hi) const {
  if (lo > hi) return 0;
  MH_REQUIRE(lo >= 1 && hi <= symbols_.size());
  if (s == Symbol::A) return prefix_adv_[hi] - prefix_adv_[lo - 1];
  std::size_t c = 0;
  for (std::size_t t = lo; t <= hi; ++t) c += (symbols_[t - 1] == s) ? 1 : 0;
  return c;
}

std::size_t CharString::count_honest(std::size_t lo, std::size_t hi) const {
  if (lo > hi) return 0;
  MH_REQUIRE(lo >= 1 && hi <= symbols_.size());
  return prefix_hon_[hi] - prefix_hon_[lo - 1];
}

std::size_t CharString::count_adversarial(std::size_t lo, std::size_t hi) const {
  if (lo > hi) return 0;
  MH_REQUIRE(lo >= 1 && hi <= symbols_.size());
  return prefix_adv_[hi] - prefix_adv_[lo - 1];
}

bool CharString::hH_heavy(std::size_t lo, std::size_t hi) const {
  return count_honest(lo, hi) > count_adversarial(lo, hi);
}

bool CharString::A_heavy(std::size_t lo, std::size_t hi) const { return !hH_heavy(lo, hi); }

CharString CharString::prefix(std::size_t len) const {
  MH_REQUIRE(len <= symbols_.size());
  return CharString(std::vector<Symbol>(symbols_.begin(),
                                        symbols_.begin() + static_cast<std::ptrdiff_t>(len)));
}

std::string CharString::to_string() const {
  std::string out;
  out.reserve(symbols_.size());
  for (Symbol s : symbols_) out.push_back(to_char(s));
  return out;
}

bool is_bivalent(const CharString& w) {
  return std::none_of(w.symbols().begin(), w.symbols().end(),
                      [](Symbol s) { return s == Symbol::h; });
}

}  // namespace mh
