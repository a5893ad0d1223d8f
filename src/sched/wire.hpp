// Little-endian wire codec shared by every PKS1 payload (serve/serve.hpp)
// and the PKJ1 journal's kCleanHolds record, and the primitives under the
// hand-written formats: the frame header (sched/frame.cpp) and the PKJ1
// journal framing.
//
// A payload struct lists its fields once, in wire order:
//
//   struct QueryMsg {
//     std::string policy_spec;
//     std::uint32_t max_failures = 0;
//
//     template <typename S, typename V>
//     static constexpr bool wire_fields(S& s, V&& v) {
//       return v(s.policy_spec, s.max_failures);
//     }
//   };
//
// encode(), decode() and min_bytes<> all walk that list, so a field cannot
// be written without being read, and a count guard cannot drift from the
// layout it guards. A new field goes into the list at the position it takes
// on the wire (and kFrameVersion moves). Wire forms:
//   integer          its own width
//   bool, enum       one byte; decode refuses a bool byte above 1, and an
//                    enum must be listed as at_most(field, last enumerator)
//   std::string      u64 length, then the bytes
//   std::vector<T>   u32 count, then the elements
//   listed struct    its own field list, inline
//   at_most(f, last) a one-byte field (flag or enum); decode refuses > last
//
// Decode contract: a truncated, corrupt or hostile input is refused and the
// output reset to its default; trailing bytes are refused; every count is
// checked against the bytes left (count * min_bytes of its element) before it
// sizes an allocation, so a lying count cannot OOM.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace plankton::wire {

template <typename T>
constexpr void put_int(std::string& out, T v) {
  const auto bytes = std::bit_cast<std::array<char, sizeof(T)>>(v);
  out.append(bytes.data(), sizeof(T));
}

template <typename T>
inline bool get_int(std::string_view& in, T& v) {
  if (in.size() < sizeof(T)) return false;
  std::memcpy(&v, in.data(), sizeof(T));
  in.remove_prefix(sizeof(T));
  return true;
}

constexpr void put_string(std::string& out, std::string_view s) {
  put_int(out, static_cast<std::uint64_t>(s.size()));
  out.append(s);
}

inline bool get_string(std::string_view& in, std::string& s) {
  std::uint64_t len = 0;
  if (!get_int(in, len) || len > in.size()) return false;
  s.assign(in.data(), static_cast<std::size_t>(len));
  in.remove_prefix(static_cast<std::size_t>(len));
  return true;
}

/// `count` forthcoming elements of at least `elem_size` wire bytes each must
/// fit in what is actually left — the anti-OOM guard for hostile length
/// fields. `elem_size` must be the element's *minimum encoded size*, not a
/// smaller prefix, or a lying count can still amplify an allocation.
inline bool fits(std::string_view in, std::uint64_t count,
                 std::size_t elem_size) {
  return count <= in.size() / elem_size;
}

/// A one-byte field (a flag or an enum) whose value must not exceed `last`.
template <typename T, typename L>
struct AtMost {
  T& field;
  L last;
};
template <typename T, typename L>
constexpr AtMost<T, L> at_most(T& field, L last) {
  return {field, last};
}

namespace detail {

template <typename T>
inline constexpr bool is_vector = false;
template <typename T, typename A>
inline constexpr bool is_vector<std::vector<T, A>> = true;
template <typename T>
inline constexpr bool is_at_most = false;
template <typename T, typename L>
inline constexpr bool is_at_most<AtMost<T, L>> = true;

struct AnyFields {
  template <typename... F>
  constexpr bool operator()(F&&...) const {
    return true;
  }
};

template <typename T>
concept HasWireFields = requires(T& t) { T::wire_fields(t, AnyFields{}); };

/// The field-list visitor behind encode().
class Writer {
 public:
  constexpr explicit Writer(std::string& out) : out_(out) {}

  template <typename... F>
  constexpr bool operator()(const F&... fields) {
    (put(fields), ...);
    return true;
  }

 private:
  template <typename T>
  constexpr void put(const T& v) {
    if constexpr (HasWireFields<T>) {
      T::wire_fields(v, *this);
    } else if constexpr (is_vector<T>) {
      put_int(out_, static_cast<std::uint32_t>(v.size()));
      for (const auto& e : v) put(e);
    } else if constexpr (std::is_same_v<T, std::string>) {
      put_string(out_, v);
    } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
      put_int(out_, static_cast<std::uint8_t>(v));
    } else if constexpr (is_at_most<T>) {
      put(v.field);
    } else {
      static_assert(std::is_integral_v<T>, "no wire form for this field type");
      put_int(out_, v);
    }
  }

  std::string& out_;
};

}  // namespace detail

template <typename M>
constexpr std::string encode(const M& m) {
  std::string out;
  detail::Writer{out}(m);
  return out;
}

/// The encoded size of a default T: empty strings and vectors, every scalar
/// at its width — the least any T can take on the wire.
template <typename T>
inline constexpr std::size_t min_bytes = encode(T{}).size();

namespace detail {

/// The field-list visitor behind decode(): false at the first field that is
/// truncated or out of range.
class Reader {
 public:
  explicit Reader(std::string_view& in) : in_(in) {}

  template <typename... F>
  bool operator()(F&&... fields) {
    return (get(fields) && ...);
  }

 private:
  template <typename T>
  bool get(T& v) {
    static_assert(!std::is_enum_v<T>,
                  "list an enum field as wire::at_most(field, last)");
    if constexpr (HasWireFields<T>) {
      return T::wire_fields(v, *this);
    } else if constexpr (is_vector<T>) {
      std::uint32_t n = 0;
      if (!get_int(in_, n) ||
          !fits(in_, n, min_bytes<typename T::value_type>)) {
        return false;
      }
      v.resize(n);
      for (auto& e : v) {
        if (!get(e)) return false;
      }
      return true;
    } else if constexpr (std::is_same_v<T, std::string>) {
      return get_string(in_, v);
    } else if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      if (!get_int(in_, b) || b > 1) return false;
      v = b == 1;
      return true;
    } else if constexpr (is_at_most<T>) {
      using Field = std::remove_reference_t<decltype(v.field)>;
      static_assert(sizeof(Field) == 1, "at_most guards a one-byte field");
      std::uint8_t b = 0;
      if (!get_int(in_, b) || b > static_cast<std::uint8_t>(v.last)) {
        return false;
      }
      v.field = static_cast<Field>(b);
      return true;
    } else {
      return get_int(in_, v);
    }
  }

  std::string_view& in_;
};

}  // namespace detail

template <typename M>
bool decode(std::string_view in, M& out) {
  out = M{};
  if (detail::Reader{in}(out) && in.empty()) return true;
  out = M{};
  return false;
}

}  // namespace plankton::wire
