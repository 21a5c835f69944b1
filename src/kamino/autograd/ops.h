#ifndef KAMINO_AUTOGRAD_OPS_H_
#define KAMINO_AUTOGRAD_OPS_H_

#include <functional>
#include <memory>
#include <vector>

#include "kamino/autograd/tensor.h"

namespace kamino {

/// A node in the dynamically built computation graph.
///
/// Reverse-mode autodiff with define-by-run semantics, like a miniature
/// PyTorch: each op allocates a node holding its forward value, links to
/// its parents, and captures a closure that routes the node's gradient
/// into the parents' gradients. `Backward` topologically sorts from the
/// root and runs the closures.
struct Node {
  Tensor value;
  Tensor grad;
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  /// Accumulates into each parent's `grad` given this node's `grad`.
  /// Null for leaves.
  std::function<void(Node&)> backward;
};

/// Shared handle to a graph node. Graphs are per-example and short-lived;
/// shared ownership keeps the API simple and the graphs are tiny.
using Var = std::shared_ptr<Node>;

/// Leaf that participates in differentiation (parameters).
Var MakeLeaf(const Tensor& value);

/// Leaf that does not require a gradient (inputs, constants).
Var MakeConstant(const Tensor& value);

/// Elementwise a + b (same shape).
Var Add(const Var& a, const Var& b);

/// Elementwise a - b (same shape).
Var Sub(const Var& a, const Var& b);

/// Elementwise a * b (same shape, Hadamard).
Var Mul(const Var& a, const Var& b);

/// a * scalar.
Var Scale(const Var& a, double scalar);

/// Matrix product (a.rows x a.cols) x (a.cols x b.cols).
Var MatMul(const Var& a, const Var& b);

/// Transpose.
Var Transpose(const Var& a);

/// Elementwise max(0, x).
Var Relu(const Var& a);

/// Elementwise tanh(x).
Var Tanh(const Var& a);

/// Row-wise softmax (used for attention weights).
Var Softmax(const Var& a);

/// Stacks m row vectors (all 1 x d) into an m x d matrix.
Var ConcatRows(const std::vector<Var>& rows);

/// Selects row `index` of a matrix as a 1 x cols vector (embedding lookup).
Var SelectRow(const Var& a, size_t index);

/// Sum of all elements, as a 1x1 scalar.
Var Sum(const Var& a);

/// Mean of all elements, as a 1x1 scalar.
Var Mean(const Var& a);

/// Fused softmax-cross-entropy: `logits` is 1 x V, `target` indexes the
/// true class. Returns the scalar loss logsumexp(logits) - logits[target].
Var CrossEntropyWithLogits(const Var& logits, size_t target);

/// The Gaussian head's standard deviation for raw output `s`:
/// softplus(s) + 1e-3. The one formula shared by training (`GaussianNll`)
/// and inference, so a prediction uses exactly the sigma it was fit with.
double GaussianSigma(double raw_std);

/// Fused Gaussian negative log-likelihood head: `mean_and_raw_std` is a
/// 1 x 2 vector (mu, s) where sigma = GaussianSigma(s). Returns the
/// scalar 0.5*((y-mu)/sigma)^2 + log(sigma).
Var GaussianNll(const Var& mean_and_raw_std, double target);

/// Runs reverse-mode differentiation from the scalar (1x1) `root`,
/// accumulating into the `grad` of every reachable node that requires a
/// gradient. Roots with more than one element get a gradient of all ones.
void Backward(const Var& root);

/// Numerically checks d(loss)/d(leaf) via central differences, where
/// `loss_fn` rebuilds the graph from scratch using the current contents of
/// `*leaf_value`. Returns the max absolute difference against
/// `analytic_grad`. Test helper.
double MaxGradError(
    Tensor* leaf_value, const Tensor& analytic_grad,
    const std::function<double()>& loss_fn, double epsilon = 1e-5);

}  // namespace kamino

#endif  // KAMINO_AUTOGRAD_OPS_H_
