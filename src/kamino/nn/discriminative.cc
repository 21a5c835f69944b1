#include "kamino/nn/discriminative.h"

#include <algorithm>
#include <cmath>

#include "kamino/common/logging.h"

namespace kamino {

DiscriminativeModel::DiscriminativeModel(const Schema& schema,
                                         std::vector<size_t> context,
                                         std::vector<size_t> targets,
                                         EncoderStore* store, Rng* rng)
    : schema_(&schema),
      context_(std::move(context)),
      targets_(std::move(targets)),
      store_(store) {
  KAMINO_CHECK(!context_.empty()) << "discriminative model needs context";
  KAMINO_CHECK(!targets_.empty()) << "discriminative model needs a target";
  if (targets_.size() == 1 && schema.attribute(targets_[0]).is_numeric()) {
    target_is_categorical_ = false;
  } else {
    target_is_categorical_ = true;
    out_dim_categorical_ = 1;
    for (size_t t : targets_) {
      KAMINO_CHECK(schema.attribute(t).is_categorical())
          << "joint targets must all be categorical";
      const size_t size = schema.attribute(t).categories().size();
      radix_.push_back(size);
      out_dim_categorical_ *= size;
    }
  }
  const size_t d = store->embed_dim();
  const size_t out_dim = target_is_categorical_ ? out_dim_categorical_ : 2;
  const double init_sd = 1.0 / std::sqrt(static_cast<double>(d));
  query_ = std::make_unique<Parameter>(Tensor::Randn(1, d, init_sd, rng));
  w1_ = std::make_unique<Parameter>(Tensor::Randn(d, d, init_sd, rng));
  b1_ = std::make_unique<Parameter>(Tensor(1, d));
  w2_ = std::make_unique<Parameter>(Tensor::Randn(d, out_dim, init_sd, rng));
  b2_ = std::make_unique<Parameter>(Tensor(1, out_dim));
}

Result<std::unique_ptr<DiscriminativeModel>> DiscriminativeModel::Create(
    const Schema& schema, std::vector<size_t> context,
    std::vector<size_t> targets, EncoderStore* store, Rng* rng) {
  if (context.empty()) {
    return Status::InvalidArgument("discriminative model needs context");
  }
  if (targets.empty()) {
    return Status::InvalidArgument("discriminative model needs a target");
  }
  for (size_t a : context) {
    if (a >= schema.size()) {
      return Status::InvalidArgument("context attribute index " +
                                     std::to_string(a) +
                                     " out of range for schema arity " +
                                     std::to_string(schema.size()));
    }
  }
  for (size_t t : targets) {
    if (t >= schema.size()) {
      return Status::InvalidArgument("target attribute index " +
                                     std::to_string(t) +
                                     " out of range for schema arity " +
                                     std::to_string(schema.size()));
    }
  }
  const bool numeric_single =
      targets.size() == 1 && schema.attribute(targets[0]).is_numeric();
  if (!numeric_single) {
    for (size_t t : targets) {
      if (!schema.attribute(t).is_categorical()) {
        return Status::InvalidArgument(
            "joint targets must all be categorical");
      }
    }
  }
  return std::make_unique<DiscriminativeModel>(
      schema, std::move(context), std::move(targets), store, rng);
}

void DiscriminativeModel::ExportHeadTensors(std::vector<Tensor>* out) const {
  out->push_back(query_->value);
  out->push_back(w1_->value);
  out->push_back(b1_->value);
  out->push_back(w2_->value);
  out->push_back(b2_->value);
}

Status DiscriminativeModel::ImportHeadTensors(const std::vector<Tensor>& values,
                                              size_t* pos) {
  Parameter* const head[] = {query_.get(), w1_.get(), b1_.get(), w2_.get(),
                             b2_.get()};
  constexpr size_t kHeadCount = sizeof(head) / sizeof(head[0]);
  if (*pos > values.size() || values.size() - *pos < kHeadCount) {
    return Status::InvalidArgument("head tensor list exhausted");
  }
  for (size_t i = 0; i < kHeadCount; ++i) {
    const Tensor& v = values[*pos + i];
    const Tensor& have = head[i]->value;
    if (v.rows() != have.rows() || v.cols() != have.cols()) {
      return Status::InvalidArgument(
          "head tensor " + std::to_string(i) + " shape " +
          std::to_string(v.rows()) + "x" + std::to_string(v.cols()) +
          " != expected " + std::to_string(have.rows()) + "x" +
          std::to_string(have.cols()));
    }
  }
  for (size_t i = 0; i < kHeadCount; ++i) head[i]->value = values[*pos + i];
  *pos += kHeadCount;
  return Status::OK();
}

size_t DiscriminativeModel::JointIndex(const Row& row) const {
  KAMINO_CHECK(target_is_categorical_) << "numeric target has no joint index";
  size_t index = 0;
  for (size_t i = 0; i < targets_.size(); ++i) {
    index = index * radix_[i] + static_cast<size_t>(row[targets_[i]].category());
  }
  return index;
}

std::vector<int32_t> DiscriminativeModel::DecodeJointIndex(
    size_t index) const {
  std::vector<int32_t> values(targets_.size());
  for (size_t i = targets_.size(); i-- > 0;) {
    values[i] = static_cast<int32_t>(index % radix_[i]);
    index /= radix_[i];
  }
  return values;
}

Var DiscriminativeModel::Output(const Row& row, ForwardContext* ctx) const {
  std::vector<Var> embeddings;
  embeddings.reserve(context_.size());
  for (size_t attr : context_) {
    embeddings.push_back(store_->encoder(attr)->Encode(row[attr], ctx));
  }
  Var keys = ConcatRows(embeddings);                      // m x d
  Var q = ctx->Bind(query_.get());                        // 1 x d
  Var scores = MatMul(q, Transpose(keys));                // 1 x m
  Var alpha = Softmax(scores);                            // 1 x m
  Var context_vec = MatMul(alpha, keys);                  // 1 x d
  Var w1 = ctx->Bind(w1_.get());
  Var b1 = ctx->Bind(b1_.get());
  Var h = Relu(Add(MatMul(context_vec, w1), b1));         // 1 x d
  Var w2 = ctx->Bind(w2_.get());
  Var b2 = ctx->Bind(b2_.get());
  return Add(MatMul(h, w2), b2);
}

Var DiscriminativeModel::Loss(const Row& row, ForwardContext* ctx) const {
  Var out = Output(row, ctx);
  if (target_is_categorical_) {
    return CrossEntropyWithLogits(out, JointIndex(row));
  }
  const AttributeEncoder* enc = store_->encoder(targets_[0]);
  return GaussianNll(out, enc->Standardize(row[targets_[0]].numeric()));
}

namespace {

/// out[0..p) = a[0..k) x b (k x p, row-major), the graph's `MatMul` for a
/// 1 x k left operand: every output starts at 0.0 and takes its products in
/// k order, skipping zero multipliers.
void VecMat(const double* a, const double* b, size_t k, size_t p,
            double* out) {
  std::fill(out, out + p, 0.0);
  for (size_t j = 0; j < k; ++j) {
    const double aj = a[j];
    if (aj == 0.0) continue;
    const double* b_row = b + j * p;
    for (size_t l = 0; l < p; ++l) out[l] += aj * b_row[l];
  }
}

/// In-place softmax of v[0..size) in the two passes of the graph's
/// `Softmax`: max, then exponentials and their sum, then the division.
void SoftmaxInPlace(double* v, size_t size) {
  double mx = v[0];
  for (size_t i = 1; i < size; ++i) mx = std::max(mx, v[i]);
  double sum = 0.0;
  for (size_t i = 0; i < size; ++i) {
    v[i] = std::exp(v[i] - mx);
    sum += v[i];
  }
  for (size_t i = 0; i < size; ++i) v[i] /= sum;
}

}  // namespace

void DiscriminativeModel::Forward(const ContextColumn* columns,
                                  const size_t* rows, size_t count,
                                  double* out) const {
  const size_t d = store_->embed_dim();
  const size_t m = context_.size();
  const size_t width = prediction_width();
  const size_t head_dim = w2_->value.cols();
  const double* query = query_->value.data().data();
  const double* w1 = w1_->value.data().data();
  const double* b1 = b1_->value.data().data();
  const double* w2 = w2_->value.data().data();
  const double* b2 = b2_->value.data().data();

  // One scratch block per call: keys (m x d), then the per-row vectors.
  std::vector<double> scratch(m * d + m + 3 * d + 2);
  double* keys = scratch.data();
  double* alpha = keys + m * d;
  double* hidden = alpha + m;
  double* context_vec = hidden + d;
  double* h = context_vec + d;
  double* gaussian = h + d;  // (mu, s) of a numeric head

  for (size_t k = 0; k < count; ++k) {
    const size_t r = rows[k];
    for (size_t i = 0; i < m; ++i) {
      const AttributeEncoder* enc = store_->encoder(context_[i]);
      if (columns[i].codes != nullptr) {
        enc->EncodeCategoryInto(columns[i].codes[r], keys + i * d);
      } else {
        enc->EncodeNumericInto(columns[i].nums[r], hidden, keys + i * d);
      }
    }
    // alpha = Softmax(MatMul(q, Transpose(keys))): score i sums
    // q[j] * keys[i][j] over j in order, skipping zero q[j].
    std::fill(alpha, alpha + m, 0.0);
    for (size_t j = 0; j < d; ++j) {
      const double qj = query[j];
      if (qj == 0.0) continue;
      for (size_t i = 0; i < m; ++i) alpha[i] += qj * keys[i * d + j];
    }
    SoftmaxInPlace(alpha, m);
    VecMat(alpha, keys, m, d, context_vec);
    // h = Relu(Add(MatMul(context_vec, w1), b1)).
    VecMat(context_vec, w1, d, d, h);
    for (size_t l = 0; l < d; ++l) h[l] += b1[l];
    for (size_t l = 0; l < d; ++l) h[l] = std::max(0.0, h[l]);
    // Add(MatMul(h, w2), b2): logits, or (mu, s).
    double* row_out = out + k * width;
    double* head = target_is_categorical_ ? row_out : gaussian;
    VecMat(h, w2, d, head_dim, head);
    for (size_t l = 0; l < head_dim; ++l) head[l] += b2[l];
    if (target_is_categorical_) {
      SoftmaxInPlace(row_out, width);
    } else {
      const double sigma = GaussianSigma(gaussian[1]);
      const AttributeEncoder* enc = store_->encoder(targets_[0]);
      // Destandardize: shift/scale the mean, scale the stddev.
      row_out[0] = enc->Destandardize(gaussian[0]);
      row_out[1] = std::abs(
          sigma * (enc->Destandardize(1.0) - enc->Destandardize(0.0)));
    }
  }
}

void DiscriminativeModel::PredictRows(const Table& table, const size_t* rows,
                                      size_t count, double* out) const {
  for (size_t k = 0; k < count; ++k) {
    KAMINO_CHECK(rows[k] < table.num_rows()) << "row index out of range";
  }
  std::vector<ContextColumn> columns(context_.size());
  for (size_t i = 0; i < context_.size(); ++i) {
    const Column& column = table.columns().column(context_[i]);
    KAMINO_CHECK(column.is_categorical() ==
                 store_->encoder(context_[i])->is_categorical())
        << "context column type does not match its encoder";
    if (column.is_categorical()) {
      columns[i].codes = column.codes().data();
    } else {
      columns[i].nums = column.nums().data();
    }
  }
  Forward(columns.data(), rows, count, out);
}

void DiscriminativeModel::ForwardRow(const Row& row, double* out) const {
  // Each context attribute becomes a one-cell column read at row 0.
  const size_t m = context_.size();
  std::vector<int32_t> codes(m);
  std::vector<double> nums(m);
  std::vector<ContextColumn> columns(m);
  for (size_t i = 0; i < m; ++i) {
    const Value& v = row[context_[i]];
    if (store_->encoder(context_[i])->is_categorical()) {
      KAMINO_CHECK(v.is_categorical()) << "categorical encoder got numeric";
      codes[i] = v.category();
      columns[i].codes = &codes[i];
    } else {
      KAMINO_CHECK(v.is_numeric()) << "numeric encoder got categorical";
      nums[i] = v.numeric();
      columns[i].nums = &nums[i];
    }
  }
  const size_t first = 0;
  Forward(columns.data(), &first, 1, out);
}

std::vector<double> DiscriminativeModel::PredictCategorical(
    const Row& row) const {
  KAMINO_CHECK(target_is_categorical_) << "target is numeric";
  std::vector<double> probs(prediction_width());
  ForwardRow(row, probs.data());
  return probs;
}

std::pair<double, double> DiscriminativeModel::PredictGaussian(
    const Row& row) const {
  KAMINO_CHECK(!target_is_categorical_) << "target is categorical";
  double mean_stddev[2];
  ForwardRow(row, mean_stddev);
  return {mean_stddev[0], mean_stddev[1]};
}

std::vector<Parameter*> DiscriminativeModel::Parameters() {
  std::vector<Parameter*> params;
  for (size_t attr : context_) {
    for (Parameter* p : store_->encoder(attr)->Parameters()) {
      params.push_back(p);
    }
  }
  params.push_back(query_.get());
  params.push_back(w1_.get());
  params.push_back(b1_.get());
  params.push_back(w2_.get());
  params.push_back(b2_.get());
  return params;
}

}  // namespace kamino
