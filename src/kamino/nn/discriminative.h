#ifndef KAMINO_NN_DISCRIMINATIVE_H_
#define KAMINO_NN_DISCRIMINATIVE_H_

#include <memory>
#include <utility>
#include <vector>

#include "kamino/data/table.h"
#include "kamino/nn/encoders.h"
#include "kamino/nn/module.h"

namespace kamino {

/// The AimNet-style sub-model M_{X,y} (section 2.3 / 4.1): predicts the
/// target attribute(s) from the context attributes X = S_{:j}.
///
/// Architecture per example:
///   e_i     = encode(context value i)                       (1 x d each)
///   E       = stack(e_1..e_m)                               (m x d)
///   alpha   = softmax(q E^T)                                (attention, 1 x m)
///   ctx_vec = alpha E                                       (1 x d)
///   h       = relu(ctx_vec W1 + b1)                         (1 x d)
///   out     = h W2 + b2     (logits, or 1 x 2 (mu, s))
///
/// Targets come in two flavors:
///  - one numeric attribute: a Gaussian regression head (mu, sigma) trained
///    with negative log-likelihood on standardized values;
///  - one or more categorical attributes: a softmax-cross-entropy head over
///    the *joint* domain (the product of the member domains). A multi-
///    attribute target is the hyper-attribute grouping of section 4.3.
///
/// Training and inference take separate paths through the same weights.
/// `Loss` builds the per-example autograd graph that DP-SGD differentiates;
/// it is the only caller of that graph. Inference (`PredictRows` and the
/// one-row `Predict*` wrappers over it) is a forward-only kernel over
/// plain buffers: no graph nodes, and context values read straight from a
/// table's typed columns. The kernel repeats the graph's rounded operations
/// in the graph's order, so a prediction is bit-identical to the softmax
/// (or Gaussian head) of the graph's output.
class DiscriminativeModel {
 public:
  /// `store` supplies (and shares) the per-attribute encoders; it must
  /// outlive the model. `context` must be non-empty. `targets` is a single
  /// attribute, or several *categorical* attributes to predict jointly.
  DiscriminativeModel(const Schema& schema, std::vector<size_t> context,
                      std::vector<size_t> targets, EncoderStore* store,
                      Rng* rng);

  /// Validating factory for deserialization paths: returns InvalidArgument
  /// (instead of the constructor's KAMINO_CHECK abort) for an empty
  /// context, empty targets, out-of-range indices, or a multi-attribute
  /// target containing a numeric attribute.
  static Result<std::unique_ptr<DiscriminativeModel>> Create(
      const Schema& schema, std::vector<size_t> context,
      std::vector<size_t> targets, EncoderStore* store, Rng* rng);

  /// Builds the per-example loss graph. The returned Var is the scalar
  /// loss; `ctx` records the parameter bindings for gradient extraction.
  Var Loss(const Row& row, ForwardContext* ctx) const;

  /// Inference kernel: for each of the `count` rows `rows[k]` of `table`,
  /// writes the row's prediction to `out[k * prediction_width() ...]`:
  /// p(v | c) over the joint categorical domain, or the Gaussian (mean,
  /// stddev) of a numeric target in value space. Reads only the context
  /// columns. Holds no scratch between calls, so concurrent calls on one
  /// model are safe.
  void PredictRows(const Table& table, const size_t* rows, size_t count,
                   double* out) const;

  /// Doubles per row written by `PredictRows`: the joint domain size for a
  /// categorical target, 2 for a numeric one.
  size_t prediction_width() const {
    return target_is_categorical_ ? out_dim_categorical_ : 2;
  }

  /// One-row `PredictRows` over a materialized row: the conditional
  /// distribution over the (joint) categorical target domain given the
  /// row's context attributes. Requires a categorical target.
  std::vector<double> PredictCategorical(const Row& row) const;

  /// One-row `PredictRows`: Gaussian (mean, stddev) for a numeric target
  /// in the original value space. Requires a numeric target.
  std::pair<double, double> PredictGaussian(const Row& row) const;

  /// Every trainable parameter: shared context encoders plus the
  /// model-private attention query and head weights.
  std::vector<Parameter*> Parameters();

  /// Index of `row`'s target values in the joint categorical domain.
  size_t JointIndex(const Row& row) const;

  /// Inverse of JointIndex: the per-target category values for a joint
  /// domain index.
  std::vector<int32_t> DecodeJointIndex(size_t index) const;

  const std::vector<size_t>& context() const { return context_; }
  const std::vector<size_t>& targets() const { return targets_; }
  bool target_is_categorical() const { return target_is_categorical_; }
  size_t joint_domain_size() const { return out_dim_categorical_; }

  /// Artifact serde for the model-private head only (the context encoders
  /// are serialized with their store): query, w1, b1, w2, b2 in that
  /// order. `ImportHeadTensors` consumes from `values` at `*pos` and fails
  /// with InvalidArgument on shape mismatch, leaving the head unmodified.
  void ExportHeadTensors(std::vector<Tensor>* out) const;
  Status ImportHeadTensors(const std::vector<Tensor>& values, size_t* pos);

 private:
  /// Where one context attribute's values live: a code array for a
  /// categorical attribute, a numeric array otherwise, indexed by row.
  struct ContextColumn {
    const int32_t* codes = nullptr;
    const double* nums = nullptr;
  };

  /// The training graph's output (logits, or (mu, s)); reached only from
  /// `Loss`.
  Var Output(const Row& row, ForwardContext* ctx) const;

  /// The inference kernel behind `PredictRows` and the one-row wrappers:
  /// `columns` is aligned with `context_`, and row `rows[k]` of every
  /// column feeds output slot k.
  void Forward(const ContextColumn* columns, const size_t* rows, size_t count,
               double* out) const;
  /// One-row `Forward` over a materialized row's context cells.
  void ForwardRow(const Row& row, double* out) const;

  const Schema* schema_;
  std::vector<size_t> context_;
  std::vector<size_t> targets_;
  bool target_is_categorical_;
  size_t out_dim_categorical_ = 0;
  std::vector<size_t> radix_;  // per-target domain sizes, for joint coding
  EncoderStore* store_;

  std::unique_ptr<Parameter> query_;   // 1 x d attention query
  std::unique_ptr<Parameter> w1_;      // d x d
  std::unique_ptr<Parameter> b1_;      // 1 x d
  std::unique_ptr<Parameter> w2_;      // d x out_dim
  std::unique_ptr<Parameter> b2_;      // 1 x out_dim
};

}  // namespace kamino

#endif  // KAMINO_NN_DISCRIMINATIVE_H_
