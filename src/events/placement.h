// A job's stage-to-processor assignment: placement[j] runs stage j.
//
// The LB proposes one, the AC admits it, and the Accept and Trigger events
// carry it to every stage of the job (paper Figure 7).  It is copied into
// every event delivery, every subjob completion capture and every
// next-stage Trigger, so it is a value type that does not allocate on that
// path: up to kInline stages (every shipped shape has at most 5) live
// inline, and only a longer placement spills to one exact-size heap block.
// Explicit task sets put no bound on stage count, so any length works.
//
// Size is 24 bytes, which keeps events::Event (and a destination pointer)
// inside sim::EventFn's inline capacity; federated_channel.cpp asserts it.
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
#include <utility>
#include <vector>

#include "util/ids.h"

namespace rtcm::events {

class Placement {
 public:
  static constexpr std::size_t kInline = 5;

  using value_type = ProcessorId;
  using iterator = ProcessorId*;
  using const_iterator = const ProcessorId*;

  Placement() = default;
  /// `stages` invalid ids, to be filled by index.
  explicit Placement(std::size_t stages) { allocate(stages); }
  explicit Placement(std::span<const ProcessorId> ids) {
    allocate(ids.size());
    std::copy(ids.begin(), ids.end(), data());
  }
  Placement(std::initializer_list<ProcessorId> ids)
      : Placement(std::span<const ProcessorId>(ids.begin(), ids.size())) {}
  /// Implicit, so placements built as vectors (tests, benches) convert.
  Placement(const std::vector<ProcessorId>& ids)  // NOLINT: implicit
      : Placement(std::span<const ProcessorId>(ids)) {}

  Placement(const Placement& other) : Placement(other.span()) {}
  Placement(Placement&& other) noexcept
      : size_(other.size_), storage_(other.storage_) {
    other.size_ = 0;
  }
  Placement& operator=(const Placement& other) {
    if (this != &other) *this = Placement(other);
    return *this;
  }
  Placement& operator=(Placement&& other) noexcept {
    if (this != &other) {
      release();
      size_ = std::exchange(other.size_, 0);
      storage_ = other.storage_;
    }
    return *this;
  }
  ~Placement() { release(); }

  /// Implicit, so callers that keep a placement as a vector still compile.
  operator std::vector<ProcessorId>() const {  // NOLINT: implicit
    return {begin(), end()};
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// True when the stages live in a heap block (more than kInline).
  [[nodiscard]] bool spilled() const { return size_ > kInline; }

  [[nodiscard]] ProcessorId* data() {
    return spilled() ? heap() : storage_.data();
  }
  [[nodiscard]] const ProcessorId* data() const {
    return spilled() ? heap() : storage_.data();
  }
  [[nodiscard]] ProcessorId* begin() { return data(); }
  [[nodiscard]] ProcessorId* end() { return data() + size_; }
  [[nodiscard]] const ProcessorId* begin() const { return data(); }
  [[nodiscard]] const ProcessorId* end() const { return data() + size_; }
  [[nodiscard]] std::span<const ProcessorId> span() const {
    return {data(), size_};
  }

  [[nodiscard]] ProcessorId& operator[](std::size_t j) {
    assert(j < size_);
    return data()[j];
  }
  [[nodiscard]] const ProcessorId& operator[](std::size_t j) const {
    assert(j < size_);
    return data()[j];
  }
  [[nodiscard]] const ProcessorId& front() const { return (*this)[0]; }
  [[nodiscard]] const ProcessorId& back() const { return (*this)[size_ - 1]; }

  friend bool operator==(const Placement& a, const Placement& b) {
    return std::ranges::equal(a.span(), b.span());
  }

 private:
  // A spilled placement keeps its block's address in the first bytes of
  // storage_ (ProcessorId is trivially copyable); memcpy keeps that
  // well-defined at the storage's 4-byte alignment.
  [[nodiscard]] ProcessorId* heap() const {
    ProcessorId* block = nullptr;
    std::memcpy(&block, storage_.data(), sizeof block);
    return block;
  }

  void allocate(std::size_t stages) {
    assert(size_ == 0);
    size_ = static_cast<std::uint32_t>(stages);
    if (!spilled()) return;
    ProcessorId* block = std::allocator<ProcessorId>().allocate(stages);
    std::uninitialized_fill_n(block, stages, ProcessorId());
    std::memcpy(static_cast<void*>(storage_.data()), &block, sizeof block);
  }

  void release() {
    if (spilled()) std::allocator<ProcessorId>().deallocate(heap(), size_);
    size_ = 0;
  }

  std::uint32_t size_ = 0;
  std::array<ProcessorId, kInline> storage_{};
  static_assert(sizeof(storage_) >= sizeof(ProcessorId*));
};

static_assert(sizeof(Placement) == 24);

}  // namespace rtcm::events
