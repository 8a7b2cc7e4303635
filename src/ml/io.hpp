// Tiny token-stream helpers for model serialization. The format is
// line-oriented text: human-inspectable, diff-friendly, and exact
// (doubles round-trip via max_digits10).
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"

namespace mpicp::ml::io {

inline void write_tag(std::ostream& os, const std::string& tag) {
  os << tag << '\n';
}

/// Read one whitespace-delimited token and require it to equal `tag`.
/// Distinguishes a truncated stream from a wrong token — the two need
/// different operator responses (re-transfer vs. format investigation).
inline void expect_tag(std::istream& is, const std::string& tag) {
  std::string got;
  if (!(is >> got)) {
    MPICP_RAISE_PARSE("model stream: unexpected end of stream while "
                     "expecting '" + tag + "'");
  }
  if (got != tag) {
    MPICP_RAISE_PARSE("model stream: expected '" + tag + "', got '" + got +
                     "'");
  }
}

template <typename T>
void write_value(std::ostream& os, const T& value) {
  if constexpr (std::is_floating_point_v<T>) {
    os << std::setprecision(std::numeric_limits<T>::max_digits10) << value
       << '\n';
  } else {
    os << value << '\n';
  }
}

template <typename T>
T read_value(std::istream& is) {
  if (is.fail()) {
    // The stream was already dead before this read; without this check a
    // chain of read_value calls after a truncation would silently hand
    // back default-initialized values. (eof alone is fine — the
    // extraction below reports it precisely.)
    MPICP_RAISE_PARSE("model stream: read past a previous failure");
  }
  T value{};
  if (!(is >> value)) {
    if (is.eof()) {
      MPICP_RAISE_PARSE("model stream: unexpected end of stream");
    }
    MPICP_RAISE_PARSE("model stream: malformed value");
  }
  return value;
}

template <typename T>
void write_vector(std::ostream& os, const std::vector<T>& values) {
  write_value(os, values.size());
  for (const T& v : values) write_value(os, v);
}

/// Grows the vector as values arrive, so a count that overstates the
/// stream fails on its short read before it allocates that count.
template <typename T>
std::vector<T> read_vector(std::istream& is) {
  const auto n = read_value<std::size_t>(is);
  MPICP_CHECK_PARSE(n < (1u << 28), "model stream: implausible vector size");
  std::vector<T> values;
  for (std::size_t i = 0; i < n; ++i) {
    // mpicp-lint: allow(no-alloc-in-loop) reserving the declared count
    // is the allocation a short stream must not reach.
    values.push_back(read_value<T>(is));
  }
  return values;
}

/// FNV-1a 64-bit — the payload checksum of the sealed envelopes below.
/// Not cryptographic; catches the bit-flips and truncations a corrupted
/// model transfer produces.
inline std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Sealed envelope, the framing of every checksummed file:
/// `<bytes> <fnv1a64 hex>\n<payload>`, written after the caller's own
/// header tokens (e.g. `regressor-v2 <name> `). The payload is
/// serialized to a buffer first, so the header carries its exact byte
/// count and checksum, and a truncated or bit-flipped file fails
/// loudly at load instead of deserializing into something wrong.
inline void write_sealed(std::ostream& os, std::string_view payload) {
  os << payload.size() << ' ' << std::hex << fnv1a64(payload) << std::dec
     << '\n'
     << payload;
}

/// Read the rest of a sealed envelope (everything write_sealed wrote)
/// and return the verified payload. A byte count of `max_bytes` or
/// more, a short read, a malformed checksum or a checksum mismatch is
/// a ParseError prefixed with `what`. The payload grows as its bytes
/// arrive, so a header that overstates it allocates only what the
/// stream holds.
inline std::string read_sealed(std::istream& is, std::size_t max_bytes,
                               const std::string& what) {
  std::size_t bytes = 0;
  std::string checksum_hex;
  if (!(is >> bytes >> checksum_hex)) {
    MPICP_RAISE_PARSE(what + ": truncated header");
  }
  MPICP_CHECK_PARSE(bytes < max_bytes, what + ": implausible payload size");
  is.get();  // the newline terminating the header
  std::string payload;
  char chunk[4096];
  while (payload.size() < bytes) {
    is.read(chunk, static_cast<std::streamsize>(
                       std::min(sizeof chunk, bytes - payload.size())));
    if (is.gcount() == 0) break;
    payload.append(chunk, static_cast<std::size_t>(is.gcount()));
  }
  if (payload.size() != bytes) {
    MPICP_RAISE_PARSE(what + ": truncated payload — expected " +
                      std::to_string(bytes) + " bytes, got " +
                      std::to_string(payload.size()));
  }
  std::uint64_t expected = 0;
  try {
    expected = std::stoull(checksum_hex, nullptr, 16);
  } catch (const std::exception&) {
    MPICP_RAISE_PARSE(what + ": malformed checksum '" + checksum_hex + "'");
  }
  const std::uint64_t actual = fnv1a64(payload);
  if (actual != expected) {
    std::ostringstream msg;
    msg << what << ": checksum mismatch — header " << std::hex << expected
        << ", payload " << actual;
    MPICP_RAISE_PARSE(msg.str());
  }
  return payload;
}

}  // namespace mpicp::ml::io
