// The daemon's wire format, written out independently of the library's
// codec: 4-byte little-endian length prefix, 24-byte requests, 32-byte
// responses (see src/serve/protocol.h for the layout this mirrors).
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "workload.h"

namespace perfbench::wire {

inline constexpr uint8_t kQuery = 1;
inline constexpr uint8_t kPing = 2;
inline constexpr uint8_t kUpdate = 3;
inline constexpr uint8_t kOk = 0;

inline constexpr std::size_t kRequestFrame = 4 + 24;
inline constexpr std::size_t kResponseFrame = 4 + 32;

struct Response {
  uint8_t status = 0xff;
  uint8_t type = 0;
  uint8_t kernel = 0xff;
  bool found = false;
  bool memo_hit = false;
  uint32_t num_edges = 0;
  uint32_t result_edges = 0;
  double significance = 0.0;
  uint64_t epoch = 0;
};

inline void Put16(uint8_t* p, uint16_t x) {
  p[0] = static_cast<uint8_t>(x);
  p[1] = static_cast<uint8_t>(x >> 8);
}
inline void Put32(uint8_t* p, uint32_t x) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(x >> (8 * i));
}
inline void Put64(uint8_t* p, uint64_t x) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(x >> (8 * i));
}
inline uint32_t Get32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}
inline uint64_t Get64(const uint8_t* p) {
  return static_cast<uint64_t>(Get32(p)) |
         static_cast<uint64_t>(Get32(p + 4)) << 32;
}

/// Appends one framed request of `type` to `out`.
inline void AppendFrame(uint8_t type, const uint8_t body[20], std::string* out) {
  uint8_t f[kRequestFrame] = {};
  Put32(f, 24);
  Put16(f + 4, 0x5141);  // "AQ"
  f[6] = 1;              // version
  f[7] = type;
  std::memcpy(f + 8, body, 20);
  out->append(reinterpret_cast<const char*>(f), sizeof f);
}

inline void AppendQuery(const Request& r, std::string* out) {
  uint8_t b[20] = {};
  b[0] = r.method;
  b[1] = r.lower ? 1 : 0;
  Put32(b + 4, r.q);
  Put32(b + 8, r.alpha);
  Put32(b + 12, r.beta);
  AppendFrame(kQuery, b, out);
}

inline void AppendPing(std::string* out) {
  uint8_t b[20] = {};
  AppendFrame(kPing, b, out);
}

inline void AppendUpdate(const Update& u, std::string* out) {
  uint8_t b[20] = {};
  b[0] = u.op;
  Put32(b + 4, u.u);
  Put32(b + 8, u.v);
  uint64_t bits = 0;
  std::memcpy(&bits, &u.w, sizeof bits);
  Put64(b + 12, u.op == kRemove || u.op == kCommit ? 0 : bits);
  AppendFrame(kUpdate, b, out);
}

/// Parses one 36-byte response frame; false on a malformed frame.
inline bool ParseResponse(const uint8_t* f, Response* r) {
  if (Get32(f) != 32 || f[4] != 0x41 || f[5] != 0x53 || f[6] != 1) {
    return false;
  }
  const uint8_t* p = f + 4;
  r->status = p[3];
  r->type = p[4];
  r->kernel = p[5];
  r->found = p[6] != 0;
  r->memo_hit = p[7] != 0;
  r->num_edges = Get32(p + 8);
  r->result_edges = Get32(p + 12);
  const uint64_t bits = Get64(p + 16);
  std::memcpy(&r->significance, &bits, sizeof bits);
  r->epoch = Get64(p + 24);
  return true;
}

}  // namespace perfbench::wire

#endif  // PERFBENCH_WIRE_H_
