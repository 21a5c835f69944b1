#include "kamino/autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace kamino {
namespace {

Var NewNode(Tensor value, std::vector<Var> parents,
            std::function<void(Node&)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->parents = std::move(parents);
  node->requires_grad = false;
  for (const Var& p : node->parents) {
    if (p->requires_grad) node->requires_grad = true;
  }
  if (node->requires_grad) node->backward = std::move(backward);
  node->grad = Tensor(node->value.rows(), node->value.cols());
  return node;
}

double Softplus(double x) {
  // Numerically stable log(1 + e^x).
  return x > 30.0 ? x : std::log1p(std::exp(x));
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

constexpr double kSigmaFloor = 1e-3;

}  // namespace

double GaussianSigma(double raw_std) { return Softplus(raw_std) + kSigmaFloor; }

Var MakeLeaf(const Tensor& value) {
  auto node = std::make_shared<Node>();
  node->value = value;
  node->grad = Tensor(value.rows(), value.cols());
  node->requires_grad = true;
  return node;
}

Var MakeConstant(const Tensor& value) {
  auto node = std::make_shared<Node>();
  node->value = value;
  node->grad = Tensor(value.rows(), value.cols());
  node->requires_grad = false;
  return node;
}

Var Add(const Var& a, const Var& b) {
  KAMINO_CHECK(a->value.SameShape(b->value)) << "Add shape mismatch";
  Tensor out = a->value;
  out.Add(b->value);
  return NewNode(std::move(out), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->grad.Add(n.grad);
    if (n.parents[1]->requires_grad) n.parents[1]->grad.Add(n.grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  KAMINO_CHECK(a->value.SameShape(b->value)) << "Sub shape mismatch";
  Tensor out = a->value;
  out.Axpy(-1.0, b->value);
  return NewNode(std::move(out), {a, b}, [](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->grad.Add(n.grad);
    if (n.parents[1]->requires_grad) n.parents[1]->grad.Axpy(-1.0, n.grad);
  });
}

Var Mul(const Var& a, const Var& b) {
  KAMINO_CHECK(a->value.SameShape(b->value)) << "Mul shape mismatch";
  Tensor out = a->value;
  for (size_t i = 0; i < out.size(); ++i) out[i] *= b->value[i];
  return NewNode(std::move(out), {a, b}, [](Node& n) {
    Node& a = *n.parents[0];
    Node& b = *n.parents[1];
    if (a.requires_grad) {
      for (size_t i = 0; i < n.grad.size(); ++i) {
        a.grad[i] += n.grad[i] * b.value[i];
      }
    }
    if (b.requires_grad) {
      for (size_t i = 0; i < n.grad.size(); ++i) {
        b.grad[i] += n.grad[i] * a.value[i];
      }
    }
  });
}

Var Scale(const Var& a, double scalar) {
  Tensor out = a->value;
  out.Scale(scalar);
  return NewNode(std::move(out), {a}, [scalar](Node& n) {
    if (n.parents[0]->requires_grad) n.parents[0]->grad.Axpy(scalar, n.grad);
  });
}

Var MatMul(const Var& a, const Var& b) {
  KAMINO_CHECK(a->value.cols() == b->value.rows()) << "MatMul shape mismatch";
  const size_t m = a->value.rows();
  const size_t k = a->value.cols();
  const size_t p = b->value.cols();
  Tensor out(m, p);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < k; ++j) {
      const double aij = a->value.at(i, j);
      if (aij == 0.0) continue;
      for (size_t l = 0; l < p; ++l) {
        out.at(i, l) += aij * b->value.at(j, l);
      }
    }
  }
  return NewNode(std::move(out), {a, b}, [m, k, p](Node& n) {
    Node& a = *n.parents[0];
    Node& b = *n.parents[1];
    if (a.requires_grad) {
      // dA = dOut * B^T
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < k; ++j) {
          double s = 0.0;
          for (size_t l = 0; l < p; ++l) {
            s += n.grad.at(i, l) * b.value.at(j, l);
          }
          a.grad.at(i, j) += s;
        }
      }
    }
    if (b.requires_grad) {
      // dB = A^T * dOut
      for (size_t j = 0; j < k; ++j) {
        for (size_t l = 0; l < p; ++l) {
          double s = 0.0;
          for (size_t i = 0; i < m; ++i) {
            s += a.value.at(i, j) * n.grad.at(i, l);
          }
          b.grad.at(j, l) += s;
        }
      }
    }
  });
}

Var Transpose(const Var& a) {
  const size_t m = a->value.rows();
  const size_t k = a->value.cols();
  Tensor out(k, m);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < k; ++j) out.at(j, i) = a->value.at(i, j);
  }
  return NewNode(std::move(out), {a}, [m, k](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < k; ++j) {
        n.parents[0]->grad.at(i, j) += n.grad.at(j, i);
      }
    }
  });
}

Var Relu(const Var& a) {
  Tensor out = a->value;
  for (double& v : out.data()) v = std::max(0.0, v);
  return NewNode(std::move(out), {a}, [](Node& n) {
    Node& a = *n.parents[0];
    if (!a.requires_grad) return;
    for (size_t i = 0; i < n.grad.size(); ++i) {
      if (a.value[i] > 0.0) a.grad[i] += n.grad[i];
    }
  });
}

Var Tanh(const Var& a) {
  Tensor out = a->value;
  for (double& v : out.data()) v = std::tanh(v);
  return NewNode(std::move(out), {a}, [](Node& n) {
    Node& a = *n.parents[0];
    if (!a.requires_grad) return;
    for (size_t i = 0; i < n.grad.size(); ++i) {
      const double y = n.value[i];
      a.grad[i] += n.grad[i] * (1.0 - y * y);
    }
  });
}

Var Softmax(const Var& a) {
  Tensor out = a->value;
  const size_t rows = out.rows();
  const size_t cols = out.cols();
  for (size_t r = 0; r < rows; ++r) {
    double mx = out.at(r, 0);
    for (size_t c = 1; c < cols; ++c) mx = std::max(mx, out.at(r, c));
    double sum = 0.0;
    for (size_t c = 0; c < cols; ++c) {
      out.at(r, c) = std::exp(out.at(r, c) - mx);
      sum += out.at(r, c);
    }
    for (size_t c = 0; c < cols; ++c) out.at(r, c) /= sum;
  }
  return NewNode(std::move(out), {a}, [rows, cols](Node& n) {
    Node& a = *n.parents[0];
    if (!a.requires_grad) return;
    // dL/dx_j = y_j * (dL/dy_j - sum_c dL/dy_c * y_c), per row.
    for (size_t r = 0; r < rows; ++r) {
      double dot = 0.0;
      for (size_t c = 0; c < cols; ++c) {
        dot += n.grad.at(r, c) * n.value.at(r, c);
      }
      for (size_t c = 0; c < cols; ++c) {
        a.grad.at(r, c) += n.value.at(r, c) * (n.grad.at(r, c) - dot);
      }
    }
  });
}

Var ConcatRows(const std::vector<Var>& rows) {
  KAMINO_CHECK(!rows.empty()) << "ConcatRows on empty list";
  const size_t d = rows[0]->value.cols();
  Tensor out(rows.size(), d);
  std::vector<Var> parents;
  parents.reserve(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    KAMINO_CHECK(rows[r]->value.rows() == 1 && rows[r]->value.cols() == d)
        << "ConcatRows expects 1 x d rows";
    for (size_t c = 0; c < d; ++c) out.at(r, c) = rows[r]->value.at(0, c);
    parents.push_back(rows[r]);
  }
  return NewNode(std::move(out), std::move(parents), [d](Node& n) {
    for (size_t r = 0; r < n.parents.size(); ++r) {
      Node& p = *n.parents[r];
      if (!p.requires_grad) continue;
      for (size_t c = 0; c < d; ++c) p.grad.at(0, c) += n.grad.at(r, c);
    }
  });
}

Var SelectRow(const Var& a, size_t index) {
  KAMINO_CHECK(index < a->value.rows()) << "SelectRow out of range";
  const size_t d = a->value.cols();
  Tensor out(1, d);
  for (size_t c = 0; c < d; ++c) out.at(0, c) = a->value.at(index, c);
  return NewNode(std::move(out), {a}, [index, d](Node& n) {
    Node& a = *n.parents[0];
    if (!a.requires_grad) return;
    for (size_t c = 0; c < d; ++c) a.grad.at(index, c) += n.grad.at(0, c);
  });
}

Var Sum(const Var& a) {
  double s = 0.0;
  for (double v : a->value.data()) s += v;
  return NewNode(Tensor::Scalar(s), {a}, [](Node& n) {
    Node& a = *n.parents[0];
    if (!a.requires_grad) return;
    const double g = n.grad[0];
    for (size_t i = 0; i < a.grad.size(); ++i) a.grad[i] += g;
  });
}

Var Mean(const Var& a) {
  const double inv = 1.0 / static_cast<double>(a->value.size());
  return Scale(Sum(a), inv);
}

Var CrossEntropyWithLogits(const Var& logits, size_t target) {
  KAMINO_CHECK(logits->value.rows() == 1) << "expects a 1 x V logit row";
  KAMINO_CHECK(target < logits->value.cols()) << "target out of range";
  const size_t v_count = logits->value.cols();
  double mx = logits->value[0];
  for (size_t i = 1; i < v_count; ++i) mx = std::max(mx, logits->value[i]);
  double sum = 0.0;
  for (size_t i = 0; i < v_count; ++i) {
    sum += std::exp(logits->value[i] - mx);
  }
  const double lse = mx + std::log(sum);
  const double loss = lse - logits->value[target];
  return NewNode(Tensor::Scalar(loss), {logits},
                 [target, v_count, mx, sum](Node& n) {
                   Node& l = *n.parents[0];
                   if (!l.requires_grad) return;
                   const double g = n.grad[0];
                   for (size_t i = 0; i < v_count; ++i) {
                     double softmax_i = std::exp(l.value[i] - mx) / sum;
                     double indicator = i == target ? 1.0 : 0.0;
                     l.grad[i] += g * (softmax_i - indicator);
                   }
                 });
}

Var GaussianNll(const Var& mean_and_raw_std, double target) {
  KAMINO_CHECK(mean_and_raw_std->value.rows() == 1 &&
               mean_and_raw_std->value.cols() == 2)
      << "GaussianNll expects a 1 x 2 (mu, s) vector";
  const double mu = mean_and_raw_std->value[0];
  const double s = mean_and_raw_std->value[1];
  const double sigma = GaussianSigma(s);
  const double z = (target - mu) / sigma;
  const double loss = 0.5 * z * z + std::log(sigma);
  return NewNode(
      Tensor::Scalar(loss), {mean_and_raw_std},
      [mu, s, sigma, target](Node& n) {
        Node& p = *n.parents[0];
        if (!p.requires_grad) return;
        const double g = n.grad[0];
        const double diff = mu - target;
        // dL/dmu = (mu - y) / sigma^2
        p.grad[0] += g * diff / (sigma * sigma);
        // dL/dsigma = -((y-mu)^2)/sigma^3 + 1/sigma; dsigma/ds = sigmoid(s)
        const double dl_dsigma =
            -(diff * diff) / (sigma * sigma * sigma) + 1.0 / sigma;
        p.grad[1] += g * dl_dsigma * Sigmoid(s);
      });
}

void Backward(const Var& root) {
  // Topological order by iterative post-order DFS.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // Seed the root gradient with ones.
  for (double& g : root->grad.data()) g = 1.0;
  // order is post-order (children first); reverse for root-first.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward) node->backward(*node);
  }
}

double MaxGradError(Tensor* leaf_value, const Tensor& analytic_grad,
                    const std::function<double()>& loss_fn, double epsilon) {
  double max_err = 0.0;
  for (size_t i = 0; i < leaf_value->size(); ++i) {
    const double saved = (*leaf_value)[i];
    (*leaf_value)[i] = saved + epsilon;
    const double plus = loss_fn();
    (*leaf_value)[i] = saved - epsilon;
    const double minus = loss_fn();
    (*leaf_value)[i] = saved;
    const double numeric = (plus - minus) / (2.0 * epsilon);
    max_err = std::max(max_err, std::abs(numeric - analytic_grad[i]));
  }
  return max_err;
}

}  // namespace kamino
