// Move-only callable with inline storage, the one callback type of the event loop and
// the RPC layer (EventFn, RpcEndpoint::ResponseCallback). A callable of up to
// kInlineBytes (with a non-throwing move) lives inline, so scheduling a typical closure
// or issuing a typical call allocates nothing; a larger one falls back to one heap
// allocation. Lambdas and std::function convert implicitly; an empty std::function and
// nullptr give an empty InlineFn.
#ifndef SRC_COMMON_INLINE_FN_H_
#define SRC_COMMON_INLINE_FN_H_

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace lazylog {

template <typename Sig>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  static constexpr size_t kInlineBytes = 88;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_same_v<D, std::function<R(Args...)>>) {
      if (!f) {
        return;
      }
    }
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      Reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(buf_, o.buf_);
        ops_ = o.ops_;
        o.ops_ = nullptr;
      }
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }
  // Calls the callable; must not be empty.
  R operator()(Args... args) { return ops_->invoke(buf_, std::forward<Args>(args)...); }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    // Move-constructs the callable into `dst` and destroys the one in `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  static constexpr bool kFitsInline = sizeof(D) <= kInlineBytes &&
                                      alignof(D) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<D>;

  // The object of type T that lives in `buf` (the callable, or the pointer to it).
  template <typename T>
  static T* As(void* buf) {
    return std::launder(static_cast<T*>(buf));
  }
  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* buf, Args&&... args) -> R {
        return std::invoke(*As<D>(buf), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*As<D>(src)));
        As<D>(src)->~D();
      },
      [](void* buf) noexcept { As<D>(buf)->~D(); },
  };
  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* buf, Args&&... args) -> R {
        return std::invoke(**As<D*>(buf), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept { ::new (dst) D*(*As<D*>(src)); },
      [](void* buf) noexcept { delete *As<D*>(buf); },
  };

  // Clears ops_ before destroying, so a destructor that reaches this InlineFn again
  // sees it empty.
  void Reset() noexcept {
    const Ops* ops = ops_;
    ops_ = nullptr;
    if (ops != nullptr) {
      ops->destroy(buf_);
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace lazylog

#endif  // SRC_COMMON_INLINE_FN_H_
