#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace agentloc::util {

/// Non-owning reference to a callable: an object pointer and a trampoline,
/// two pointers that never allocate.
///
/// For parameters that are only called during the call that receives them,
/// such as `net::SocketTransport::send`'s payload encoder. A lambda with
/// more than 16 bytes of captures would heap-allocate inside a
/// `std::function`; here it stays on the caller's stack. The referenced
/// callable must outlive every call through the reference.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// An empty reference; `operator bool` reads false.
  FunctionRef(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                            std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& fn) noexcept  // NOLINT(runtime/explicit)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(fn)))),
        invoke_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) const {
    return invoke_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_ = nullptr;
  R (*invoke_)(void*, Args...) = nullptr;
};

}  // namespace agentloc::util
