// Monotonic (bump) arena allocator for per-cell admission state.
//
// The admission book of record (core/scheduling_state.h) stores its
// variable-length spill data — placements and contribution lists beyond the
// inline capacity of util::SmallVec — in one of these.  Allocation is a
// pointer bump inside ~256 KiB blocks; nothing is ever freed individually.
// A sweep cell tears its whole admission state down at once, so wholesale
// release (the destructor, or release()) is the only deallocation path a
// cell needs, and steady-state churn at fixed capacity touches the arena
// not at all: grown SmallVecs keep their spill buffers until teardown.
//
// Each SystemRuntime (= sweep cell) owns its own arena.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace rtcm::util {

class MonotonicArena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 256 * 1024;

  explicit MonotonicArena(std::size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes) {}

  MonotonicArena(const MonotonicArena&) = delete;
  MonotonicArena& operator=(const MonotonicArena&) = delete;

  /// Bump-allocate `bytes` aligned to `align` (a power of two, at most
  /// the fundamental alignment — blocks come from plain operator new[],
  /// which guarantees nothing stronger).  Requests larger than the block
  /// size get a dedicated block.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    assert(align != 0 && (align & (align - 1)) == 0 &&
           align <= alignof(std::max_align_t));
    if (bytes == 0) bytes = 1;
    std::size_t offset = (used_ + (align - 1)) & ~(align - 1);
    if (blocks_.empty() || offset + bytes > blocks_.back().size) {
      const std::size_t size = bytes > block_bytes_ ? bytes : block_bytes_;
      blocks_.push_back({std::make_unique<std::byte[]>(size), size});
      offset = 0;  // fresh blocks are maximally aligned (operator new)
    }
    used_ = offset + bytes;
    allocated_ += bytes;
    return blocks_.back().data.get() + offset;
  }

  template <typename T>
  [[nodiscard]] T* allocate_array(std::size_t n) {
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Drop every block at once (the cell-teardown path; the destructor does
  /// the same).  All pointers handed out become dangling.
  void release() {
    blocks_.clear();
    used_ = 0;
    allocated_ = 0;
  }

  /// Bytes handed out to callers (excludes per-block slack).
  [[nodiscard]] std::size_t allocated_bytes() const { return allocated_; }
  /// Bytes owned by the arena's blocks (what the process actually holds).
  [[nodiscard]] std::size_t reserved_bytes() const {
    std::size_t sum = 0;
    for (const Block& b : blocks_) sum += b.size;
    return sum;
  }
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::size_t block_bytes_;
  std::size_t used_ = 0;  // bump offset inside blocks_.back()
  std::size_t allocated_ = 0;
  std::vector<Block> blocks_;
};

}  // namespace rtcm::util
