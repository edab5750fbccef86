// A short list of trivially copyable values: up to N live inline, and a
// longer list spills to one exact-size heap block.
//
// Every per-job list the middleware keeps is one entry per stage: the
// job's stage-to-processor placement (events::Placement), the ledger units
// each admitted stage holds, the admission index's per-footprint visit
// lists and the deferrable-server stage records.  Every shipped shape has
// at most 5 stages, so with N = 5 these lists are values that never touch
// the heap; a longer list allocates its block when it is built and frees
// it when it dies.  Explicit task sets put no bound on stage count, so any
// length works.  The length is fixed when the list is built: it is filled
// once and then only read, or written by index.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace rtcm::util {

template <typename T, std::size_t N>
class InlineList {
  static_assert(std::is_trivially_copyable_v<T>,
                "moves relocate the storage bytes");
  static_assert(N * sizeof(T) >= sizeof(T*),
                "a spilled list keeps its block pointer in the storage");

 public:
  static constexpr std::size_t kInline = N;

  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineList() = default;
  /// `size` value-initialized elements, to be filled by index.
  explicit InlineList(std::size_t size) { allocate(size); }
  explicit InlineList(std::span<const T> values) {
    allocate(values.size());
    std::copy(values.begin(), values.end(), data());
  }
  InlineList(std::initializer_list<T> values)
      : InlineList(std::span<const T>(values.begin(), values.size())) {}
  /// Implicit, so lists built as vectors (tests, benches) convert.
  InlineList(const std::vector<T>& values)  // NOLINT: implicit
      : InlineList(std::span<const T>(values)) {}

  InlineList(const InlineList& other) : InlineList(other.span()) {}
  InlineList(InlineList&& other) noexcept { steal(other); }
  InlineList& operator=(const InlineList& other) {
    if (this != &other) *this = InlineList(other);
    return *this;
  }
  InlineList& operator=(InlineList&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~InlineList() { release(); }

  /// Implicit, so callers that keep a list as a vector still compile.
  operator std::vector<T>() const {  // NOLINT: implicit
    return {begin(), end()};
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// True when the elements live in a heap block (more than N).
  [[nodiscard]] bool spilled() const { return size_ > N; }
  /// Bytes of the heap block (0 while inline).
  [[nodiscard]] std::size_t heap_bytes() const {
    return spilled() ? size_ * sizeof(T) : 0;
  }

  [[nodiscard]] T* data() { return spilled() ? heap() : storage_.data(); }
  [[nodiscard]] const T* data() const {
    return spilled() ? heap() : storage_.data();
  }
  [[nodiscard]] T* begin() { return data(); }
  [[nodiscard]] T* end() { return data() + size_; }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size_; }
  [[nodiscard]] std::span<const T> span() const { return {data(), size_}; }

  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return data()[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data()[i];
  }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  friend bool operator==(const InlineList& a, const InlineList& b) {
    return std::ranges::equal(a.span(), b.span());
  }

 private:
  // A spilled list keeps its block's address in the first bytes of
  // storage_; memcpy keeps that well-defined at T's alignment.
  [[nodiscard]] T* heap() const {
    T* block = nullptr;
    std::memcpy(&block, storage_.data(), sizeof block);
    return block;
  }

  void set_heap(T* block) {
    std::memcpy(static_cast<void*>(storage_.data()), &block, sizeof block);
  }

  void allocate(std::size_t size) {
    assert(size_ == 0);
    size_ = static_cast<std::uint32_t>(size);
    if (!spilled()) return;
    T* block = std::allocator<T>().allocate(size);
    std::uninitialized_fill_n(block, size, T());
    set_heap(block);
  }

  void release() {
    if (spilled()) std::allocator<T>().deallocate(heap(), size_);
    size_ = 0;
  }

  // The block pointer is copied as bytes: it may lie over T's padding,
  // which an element-wise copy need not keep.
  void steal(InlineList& other) {
    if (other.spilled()) {
      set_heap(other.heap());
    } else {
      storage_ = other.storage_;
    }
    size_ = std::exchange(other.size_, 0);
  }

  std::uint32_t size_ = 0;
  std::array<T, N> storage_{};
};

}  // namespace rtcm::util
