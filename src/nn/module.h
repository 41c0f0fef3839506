#ifndef PPN_NN_MODULE_H_
#define PPN_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "ckpt/binio.h"

/// \file
/// Base class for neural-network layers: a tree of modules with a recursive
/// parameter registry, a shared training/eval flag, and exact binary
/// parameter serialization (wrapped in a checkpoint file for both
/// training snapshots and saved weights).

namespace ppn::nn {

/// Base class for layers and networks. Subclasses register their trainable
/// tensors with `RegisterParameter` and their child layers with
/// `RegisterSubmodule`; `Parameters()` then walks the whole tree.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its descendants, in
  /// registration order.
  std::vector<ag::Var> Parameters() const;

  /// Named parameters with slash-separated paths ("lstm/w_ih", ...).
  std::vector<std::pair<std::string, ag::Var>> NamedParameters() const;

  /// Zeroes the gradient accumulator of every parameter.
  void ZeroGrad();

  /// Sets training mode (affects dropout) for the whole subtree.
  void SetTraining(bool training);

  /// Whether this module is in training mode.
  bool training() const { return training_; }

  /// Total number of scalar parameters in the subtree.
  int64_t ParameterCount() const;

  /// Serializes every named parameter (name, size, raw float32 payload)
  /// into `writer`. Exact: NaN/±Inf and all finite values round-trip
  /// bit-for-bit.
  void SaveState(ckpt::BinWriter* writer) const;

  /// Restores parameters written by `SaveState`. The module tree must
  /// match (same names and sizes in order); returns false with a
  /// contextual message in *error on any mismatch or short read. The
  /// module is only partially updated on failure — callers treat a failed
  /// load as fatal for the target module.
  bool LoadState(ckpt::BinReader* reader, std::string* error);

  /// Copies parameter values elementwise from `source`, which must have an
  /// identically shaped parameter list (used for target networks in DDPG).
  void CopyParametersFrom(const Module& source);

  /// Soft update: p := (1 - tau) * p + tau * p_source (Polyak averaging).
  void PolyakUpdateFrom(const Module& source, float tau);

 protected:
  /// Registers and returns a trainable parameter initialized to `init`.
  ag::Var RegisterParameter(const std::string& name, Tensor init);

  /// Registers a child layer (non-owning; the child must outlive `this`,
  /// which holds it as a data member).
  void RegisterSubmodule(const std::string& name, Module* submodule);

 private:
  void CollectNamed(const std::string& prefix,
                    std::vector<std::pair<std::string, ag::Var>>* out) const;

  std::vector<std::pair<std::string, ag::Var>> parameters_;
  std::vector<std::pair<std::string, Module*>> submodules_;
  bool training_ = true;
};

}  // namespace ppn::nn

#endif  // PPN_NN_MODULE_H_
