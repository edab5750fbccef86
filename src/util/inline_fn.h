// Small-buffer, move-only function delegate.
//
// `InlineFunction<R(Args...), Capacity>` stores callables of up to
// `Capacity` bytes in an inline buffer — no heap allocation, no type-erased
// node behind a pointer — and falls back to a single heap allocation only
// for captures that are oversized, over-aligned, or not nothrow-movable.
// This is the callback currency of the simulation kernel: event callbacks
// and work-item completions are both hot enough that the per-closure
// allocation `std::function` performs (libstdc++ inlines only 16 bytes)
// shows up in sweep wall time.
//
// Differences from std::function, all deliberate:
//   - move-only (so captures may own move-only state, and copies of hot
//     callbacks cannot be created by accident),
//   - no target()/target_type() RTTI,
//   - invoking an empty delegate is undefined (assert in debug builds)
//     instead of throwing std::bad_function_call.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rtcm {

template <typename Signature, std::size_t Capacity = 48>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
  static_assert(Capacity >= sizeof(void*),
                "capacity must hold at least the heap-fallback pointer");

 public:
  /// Inline buffer size in bytes; callables at most this big (and at most
  /// max_align_t-aligned, and nothrow-movable) are stored without a heap
  /// allocation.
  static constexpr std::size_t kCapacity = Capacity;

  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  constexpr InlineFunction() = default;
  constexpr InlineFunction(std::nullptr_t) {}  // NOLINT(runtime/explicit)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  InlineFunction(F&& fn) {  // NOLINT(runtime/explicit)
    using D = std::remove_cvref_t<F>;
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buffer_)) D(std::forward<F>(fn));
    } else {
      ::new (static_cast<void*>(buffer_)) (D*)(new D(std::forward<F>(fn)));
    }
    vtable_ = &kVTable<D>;
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return vtable_ != nullptr; }

  R operator()(Args... args) {
    assert(vtable_ != nullptr && "invoking an empty InlineFunction");
    return vtable_->invoke(buffer_, std::forward<Args>(args)...);
  }

  /// Destroy the stored callable, leaving the delegate empty.
  void reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(buffer_);
      vtable_ = nullptr;
    }
  }

 private:
  struct VTable {
    R (*invoke)(void* buffer, Args&&... args);
    void (*relocate)(void* src_buffer, void* dst_buffer);  // noexcept
    void (*destroy)(void* buffer);
  };

  template <typename D>
  static D* target(void* buffer) {
    if constexpr (fits_inline<D>) {
      return std::launder(reinterpret_cast<D*>(buffer));
    } else {
      return *std::launder(reinterpret_cast<D**>(buffer));
    }
  }

  template <typename D>
  static constexpr VTable kVTable = {
      [](void* buffer, Args&&... args) -> R {
        return (*target<D>(buffer))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) {
        if constexpr (fits_inline<D>) {
          D* from = target<D>(src);
          ::new (dst) D(std::move(*from));
          from->~D();
        } else {
          ::new (dst) (D*)(*std::launder(reinterpret_cast<D**>(src)));
        }
      },
      [](void* buffer) {
        if constexpr (fits_inline<D>) {
          target<D>(buffer)->~D();
        } else {
          delete target<D>(buffer);
        }
      },
  };

  void take(InlineFunction& other) noexcept {
    if (other.vtable_ == nullptr) return;
    other.vtable_->relocate(other.buffer_, buffer_);
    vtable_ = other.vtable_;
    other.vtable_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buffer_[Capacity];
  const VTable* vtable_ = nullptr;
};

}  // namespace rtcm
