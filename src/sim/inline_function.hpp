// Move-only type-erased callable with inline storage.
//
// InlineFunction<R(Args...), Capacity> holds any callable whose object fits
// in `Capacity` bytes (at pointer alignment) and is nothrow-movable inside
// the wrapper itself, so constructing, moving and destroying it never
// touches the heap.  Larger or throwing-move callables fall back to one heap
// node.  It replaces std::function on the simulator's per-message paths:
// the engine's event callbacks (sim::Engine::Callback), the network's frame
// outcomes (net::Outcome) and the runtime's settle callbacks
// (rt::OnSettled), where std::function's 16-byte small buffer sent nearly
// every closure to malloc.
//
// Unlike std::function it is move-only (so it can hold move-only captures)
// and a moved-from wrapper is empty.  Calling an empty wrapper is undefined.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace nscc::sim {

template <typename Signature, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  /// True when a callable of type F is stored in the inline buffer.
  template <typename F>
  static constexpr bool kStoredInline =
      sizeof(F) <= Capacity && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT: implicit, like std::function
    emplace<D>(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { take(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  /// Replace the target, constructing the new callable in place.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction& operator=(F&& f) {
    reset();
    emplace<D>(std::forward<F>(f));
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invoke the target (as a non-const object, like std::function).
  R operator()(Args... args) const {
    return ops_->invoke(const_cast<unsigned char*>(buf_),
                        std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
    /// Move-construct the target at `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* self, Args&&... args) -> R {
        return (*static_cast<D*>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* self, Args&&... args) -> R {
        return (**static_cast<D**>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* self) noexcept { delete *static_cast<D**>(self); },
  };

  template <typename D, typename F>
  void emplace(F&& f) {
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      static_assert(sizeof(D*) <= Capacity, "capacity below a pointer");
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  void take(InlineFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(void*) unsigned char buf_[Capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace nscc::sim
