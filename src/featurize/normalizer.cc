#include "featurize/normalizer.h"

#include <cassert>
#include <cmath>

namespace ps3::featurize {

double FeatureNormalizer::Transform(StatKind kind, double v) {
  if (CategoryOf(kind) == FeatureCategory::kSelectivity) {
    return std::cbrt(v);
  }
  // Signed log1p keeps ordering and handles negatives (e.g. min(x)).
  return v >= 0.0 ? std::log1p(v) : -std::log1p(-v);
}

void FeatureNormalizer::Fit(const FeatureSchema& schema,
                            const std::vector<const FeatureMatrix*>& training) {
  const size_t m = schema.num_features();
  kinds_.resize(m);
  for (size_t j = 0; j < m; ++j) kinds_[j] = schema.def(j).kind;
  scale_.assign(m, 1.0);

  std::vector<double> sum(m, 0.0);
  size_t rows = 0;
  for (const FeatureMatrix* fm : training) {
    assert(fm->m == m);
    for (size_t i = 0; i < fm->n; ++i) {
      const double* row = fm->Row(i);
      for (size_t j = 0; j < m; ++j) {
        sum[j] += std::fabs(Transform(kinds_[j], row[j]));
      }
    }
    rows += fm->n;
  }
  if (rows == 0) return;
  for (size_t j = 0; j < m; ++j) {
    double mean = sum[j] / static_cast<double>(rows);
    // Average is more robust to outliers than max (Appendix B.1). Features
    // that are identically ~0 in training keep scale 1.
    scale_[j] = mean > 1e-12 ? mean : 1.0;
  }
}

void FeatureNormalizer::Serialize(BinaryWriter* w) const {
  w->PutU32(static_cast<uint32_t>(kinds_.size()));
  for (StatKind k : kinds_) w->PutI32(static_cast<int32_t>(k));
  w->PutDoubleVector(scale_);
}

Result<FeatureNormalizer> FeatureNormalizer::Deserialize(BinaryReader* r) {
  FeatureNormalizer norm;
  auto count = r->GetU32();
  if (!count.ok()) return count.status();
  norm.kinds_.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto k = r->GetI32();
    if (!k.ok()) return k.status();
    if (*k < 0 || *k >= kNumStatKinds) {
      return Status::OutOfRange("corrupt normalizer: bad StatKind");
    }
    norm.kinds_.push_back(static_cast<StatKind>(*k));
  }
  auto scale = r->GetDoubleVector();
  if (!scale.ok()) return scale.status();
  norm.scale_ = std::move(scale).value();
  if (norm.scale_.size() != norm.kinds_.size()) {
    return Status::OutOfRange("corrupt normalizer: size mismatch");
  }
  return norm;
}

void FeatureNormalizer::Apply(FeatureMatrix* features) const {
  assert(fitted());
  assert(features->m == scale_.size());
  for (size_t i = 0; i < features->n; ++i) {
    double* row = features->Row(i);
    for (size_t j = 0; j < features->m; ++j) row[j] = Normalize(j, row[j]);
  }
}

NormalizedFeatures::NormalizedFeatures(const Featurizer& featurizer,
                                       const FeatureNormalizer& normalizer)
    : featurizer_(&featurizer), normalizer_(normalizer) {
  if (!normalizer_.fitted()) return;
  statics_ = featurizer.static_features();
  normalizer_.Apply(&statics_);
}

FeatureMatrix NormalizedFeatures::Build(
    const query::Query& query,
    const std::vector<SelectivityFeatures>& sel) const {
  assert(normalizer_.fitted() && sel.size() == statics_.n);
  FeatureMatrix out = featurizer_->MaskStatic(statics_, query);
  const FeatureSchema& schema = featurizer_->feature_schema();
  const size_t upper = schema.sel_upper_index();
  const size_t indep = schema.sel_indep_index();
  const size_t min = schema.sel_min_index();
  const size_t max = schema.sel_max_index();
  for (size_t p = 0; p < out.n; ++p) {
    double* row = out.Row(p);
    row[upper] = normalizer_.Normalize(upper, sel[p].upper);
    row[indep] = normalizer_.Normalize(indep, sel[p].indep);
    row[min] = normalizer_.Normalize(min, sel[p].min_clause);
    row[max] = normalizer_.Normalize(max, sel[p].max_clause);
  }
  return out;
}

}  // namespace ps3::featurize
