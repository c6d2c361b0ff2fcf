// Bounded little-endian byte serialization used for every on-air packet,
// plus the ref-counted immutable buffer the zero-copy frame pipeline is
// built on.
//
// ByteWriter appends primitive values to a growable buffer; ByteReader
// consumes them with bounds checking. A reader never throws on malformed
// input: it latches an error flag and returns zero values, because
// malformed packets are *protocol data* sent by (possibly Byzantine)
// peers, not programmer errors. Callers must check `ok()` before trusting
// anything that was read.
//
// Buffer is the serialize-once, share-everywhere currency of the byte
// path (DESIGN.md §5a): a packet is serialized into exactly one Buffer,
// the Medium hands that same Buffer to every receiver in range (refcount
// bump, no byte copy), and the parser borrows payload bytes out of it as
// slices sharing the same allocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace byzcast::util {

/// Copy/allocation counters for the zero-copy pipeline. The benches
/// (bench_micro) difference these around a fan-out to prove the
/// copy-count invariant: one allocation per serialization, zero byte
/// copies per receiver. The one counted copy on the receive side is UDP
/// ingress (net/datagram.h): each accepted datagram's payload is copied
/// out of the socket's receive scratch into an exact-size Buffer; the
/// DES path stays copy-free. Atomic (relaxed) because the sweep engine runs
/// independent simulator replicas on a thread pool; each simulator is
/// still single-threaded internally.
struct BufferStats {
  static std::atomic<std::uint64_t> allocations;   ///< blocks materialized
  static std::atomic<std::uint64_t> bytes_copied;  ///< bytes memcpy'd
  static void reset();
};

/// Ref-counted immutable byte buffer. Copying a Buffer (or taking a
/// slice) shares the underlying allocation; the bytes themselves can
/// never change after construction, so sharing across receivers, the
/// message store and in-flight frames is safe by construction.
class Buffer {
 public:
  Buffer() = default;

  /// Takes ownership of `bytes` (no byte copy; counts one allocation).
  /// Implicit on purpose: it makes `radio.send({1, 2, 3})` and
  /// `msg.payload = {...}` read like the vector-based code it replaced.
  Buffer(std::vector<std::uint8_t> bytes);  // NOLINT(google-explicit-constructor)
  Buffer(std::initializer_list<std::uint8_t> bytes)
      : Buffer(std::vector<std::uint8_t>(bytes)) {}

  /// Materializes an owned copy of `bytes` (counts size() copied bytes).
  static Buffer copy_of(std::span<const std::uint8_t> bytes);

  /// A view of [offset, offset+count) sharing this buffer's allocation.
  /// Hard-fails (assert semantics via terminate) on out-of-range slices —
  /// slicing is driven by already-bounds-checked reader positions.
  [[nodiscard]] Buffer slice(std::size_t offset, std::size_t count) const;

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::span<const std::uint8_t> span() const {
    return {data_, size_};
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::span<const std::uint8_t>() const { return span(); }

  [[nodiscard]] const std::uint8_t* begin() const { return data_; }
  [[nodiscard]] const std::uint8_t* end() const { return data_ + size_; }

  /// Owners of the underlying allocation (0 for the empty buffer) — lets
  /// tests assert "N receivers share one allocation".
  [[nodiscard]] long use_count() const { return storage_.use_count(); }
  /// Bytes reserved by the underlying allocation (0 for the empty buffer)
  /// — lets tests assert that a slice pins no more than it should.
  [[nodiscard]] std::size_t allocation_size() const {
    return storage_ ? storage_->capacity() : 0;
  }
  /// True when both buffers view the same bytes of the same allocation.
  [[nodiscard]] bool shares_storage_with(const Buffer& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

  /// Byte-wise equality (contents, not identity).
  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

 private:
  std::shared_ptr<const std::vector<std::uint8_t>> storage_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  /// Length-prefixed (u32) byte string.
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) UTF-8 string.
  void str(std::string_view s);
  /// Raw bytes, no length prefix (layout is the caller's contract).
  void raw(std::span<const std::uint8_t> data);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  /// Freezes the written bytes into an immutable shared Buffer (no copy).
  [[nodiscard]] Buffer take_buffer() { return Buffer(std::move(buf_)); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a non-owning view.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  /// Reads a u32 length prefix then that many bytes. Empty on error.
  std::vector<std::uint8_t> bytes();
  /// Reads a u32 length prefix then a *view* of that many bytes — no
  /// copy; the view aliases the reader's underlying span. Empty on error.
  std::span<const std::uint8_t> bytes_view();
  /// Reads a u32 length prefix then that many bytes as a string.
  std::string str();

  /// True while every read so far stayed in bounds.
  [[nodiscard]] bool ok() const { return ok_; }
  /// Latches the error flag. Decoders call this when a value read is in
  /// bounds but violates the format (non-canonical bool, dirty padding),
  /// so one `done()` check at the end still catches everything.
  void fail() { ok_ = false; }
  /// True when the whole buffer was consumed without error.
  [[nodiscard]] bool done() const { return ok_ && pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const {
    return ok_ ? data_.size() - pos_ : 0;
  }
  /// Bytes consumed so far (meaningless once !ok()).
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  template <typename T>
  T read_le() {
    if (!ok_ || data_.size() - pos_ < sizeof(T)) {
      ok_ = false;
      return T{};
    }
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Convenience: bytes of a string literal / std::string.
std::vector<std::uint8_t> to_bytes(std::string_view s);
/// Convenience: interpret bytes as text (for demo payloads).
std::string to_string(std::span<const std::uint8_t> b);

}  // namespace byzcast::util
