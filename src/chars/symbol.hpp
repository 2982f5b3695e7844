// Symbols of characteristic strings (Definition 1 and Definition 20 of the paper).
//
//   h  : uniquely honest slot (exactly one honest leader, no adversarial one)
//   H  : multiply honest slot (>= 2 honest leaders, no adversarial one)
//   A  : adversarial slot (at least one adversarial leader)
//   Bot: empty slot (no leader at all; only in the semi-synchronous alphabet)
#pragma once

#include <cstdint>

#include "support/check.hpp"

namespace mh {

enum class Symbol : std::uint8_t { h = 0, H = 1, A = 2 };

/// The four-letter alphabet of Definition 20 (semi-synchronous setting).
enum class TetraSymbol : std::uint8_t { Bot = 0, h = 1, H = 2, A = 3 };

constexpr bool is_honest(Symbol s) noexcept { return s != Symbol::A; }
constexpr bool is_adversarial(Symbol s) noexcept { return s == Symbol::A; }
constexpr bool is_uniquely_honest(Symbol s) noexcept { return s == Symbol::h; }

constexpr bool is_honest(TetraSymbol s) noexcept {
  return s == TetraSymbol::h || s == TetraSymbol::H;
}
constexpr bool is_adversarial(TetraSymbol s) noexcept { return s == TetraSymbol::A; }
constexpr bool is_empty(TetraSymbol s) noexcept { return s == TetraSymbol::Bot; }
/// The synchronous alphabet has no empty slot.
constexpr bool is_empty(Symbol) noexcept { return false; }

constexpr char to_char(Symbol s) noexcept {
  switch (s) {
    case Symbol::h: return 'h';
    case Symbol::H: return 'H';
    case Symbol::A: return 'A';
  }
  return '?';
}

constexpr char to_char(TetraSymbol s) noexcept {
  switch (s) {
    case TetraSymbol::Bot: return '.';
    case TetraSymbol::h: return 'h';
    case TetraSymbol::H: return 'H';
    case TetraSymbol::A: return 'A';
  }
  return '?';
}

inline Symbol symbol_from_char(char c) {
  switch (c) {
    case 'h': return Symbol::h;
    case 'H': return Symbol::H;
    case 'A':
    case '1': return Symbol::A;  // '1' accepted for Blum-et-al. bit-string notation
    case '0': return Symbol::h;
    default: MH_REQUIRE_MSG(false, "invalid characteristic-string character"); return Symbol::h;
  }
}

inline TetraSymbol tetra_from_char(char c) {
  switch (c) {
    case '.':
    case '_': return TetraSymbol::Bot;
    case 'h': return TetraSymbol::h;
    case 'H': return TetraSymbol::H;
    case 'A': return TetraSymbol::A;
    default:
      MH_REQUIRE_MSG(false, "invalid semi-synchronous characteristic-string character");
      return TetraSymbol::Bot;
  }
}

/// The partial order on single symbols used for stochastic dominance
/// (Section 2.2 of the paper): h < H < A, "more adversarial" is larger.
constexpr int adversarial_rank(Symbol s) noexcept { return static_cast<int>(s); }

}  // namespace mh
