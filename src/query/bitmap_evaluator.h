// Executes compiled predicate / expression programs over one partition's
// raw column spans. Holds all execution scratch (bitmap stack, expression
// buffers), so one evaluator per thread amortizes allocations across every
// partition that thread scans. Not thread-safe; cheap to default-construct.
#ifndef PS3_QUERY_BITMAP_EVALUATOR_H_
#define PS3_QUERY_BITMAP_EVALUATOR_H_

#include <vector>

#include "query/compiler.h"
#include "query/selection_bitmap.h"
#include "runtime/simd.h"
#include "storage/partition.h"

namespace ps3::query {

class BitmapEvaluator {
 public:
  /// Selects the predicate kernels: scalar word-packing, or the explicit
  /// AVX2 compare/IN kernels (cmp_pd + movemask). Both produce identical
  /// bitmaps; kAuto upgrades at runtime when the CPU supports AVX2.
  void set_simd(runtime::SimdLevel level) {
    use_avx2_ = runtime::UseAvx2(level);
  }

  /// The resolved kernel tier; the evaluator's grouped loop picks its
  /// dense group-id kernel (DenseGroupIdsAvx2 or the scalar reference)
  /// by the same dispatch decision as the predicate kernels.
  bool use_avx2() const { return use_avx2_; }

  /// Runs `prog` over all rows of `part`; `out` ends with bit r set iff
  /// row r matches. `out` is reset to the partition size first.
  void EvalPredicate(const PredProgram& prog, const storage::Partition& part,
                     SelectionBitmap* out);

  /// Scalar stack-machine evaluation of a compiled expression for one row.
  /// Performs the arithmetic in the same operation order as Expr::Eval, so
  /// results are bit-identical to the AST walk.
  double EvalExprAt(const ExprProgram& prog, const storage::Partition& part,
                    size_t row);

  /// Columnar evaluation: fills (*out)[r] for every row of the partition.
  /// Per-row results are bit-identical to EvalExprAt (same op order per
  /// element); use when the selection is dense enough to pay for touching
  /// every row.
  void EvalExprDense(const ExprProgram& prog, const storage::Partition& part,
                     std::vector<double>* out);

 private:
  bool use_avx2_ = runtime::UseAvx2(runtime::SimdLevel::kAuto);
  std::vector<SelectionBitmap> bitmap_stack_;
  std::vector<std::vector<double>> buffer_stack_;
  std::vector<double> value_stack_;
  /// Membership table scratch for the AVX2 gather IN-list kernel (one
  /// 32-bit lane per dictionary code).
  std::vector<uint32_t> in_table_;
};

}  // namespace ps3::query

#endif  // PS3_QUERY_BITMAP_EVALUATOR_H_
