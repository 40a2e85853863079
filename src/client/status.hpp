// Status: the one operation outcome type of the client API.
//
// Before the unified client layer, each runtime reported failures its own
// way — blocking kv calls threw std::runtime_error, the threaded callbacks
// passed static `const char*` strings, the sharded futures threw out of
// get().
// Status replaces all of them with a value type the hot path can afford:
// a code plus a pointer to a static message, no ownership, no allocation.
//
// Convention: engines construct Status only from string literals (or other
// static-duration strings), so copying a Status never touches the heap and
// message() is valid for the life of the process.
#pragma once

#include <cstdint>

namespace tbr {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  /// The operation's target process (writer, reader, or a key's home
  /// replica) has crashed; the op failed before or instead of completing.
  kCrashed,
  /// The engine was stopped (or destroyed) before the op could complete,
  /// or had not been started when the op was submitted.
  kShutdown,
  /// The op's register group can no longer assemble quorums (more than t
  /// crashes, or a stalled batch); the engine refuses or abandons ops.
  kLivenessLost,
};

class Status {
 public:
  /// Success.
  constexpr Status() = default;
  constexpr Status(StatusCode code, const char* message)
      : code_(code), message_(message) {}

  constexpr bool ok() const noexcept { return code_ == StatusCode::kOk; }
  constexpr StatusCode code() const noexcept { return code_; }
  /// Never null; "" on success, a static description otherwise.
  constexpr const char* message() const noexcept { return message_; }

  friend constexpr bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  const char* message_ = "";
};

}  // namespace tbr
