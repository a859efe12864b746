#ifndef TABULAR_ALGEBRA_OUTPUT_SIZE_H_
#define TABULAR_ALGEBRA_OUTPUT_SIZE_H_

#include <cstdint>

namespace tabular::algebra {

/// The data rows and data columns a kernel's output will have, computed
/// from its inputs by the kernel's own size formula before anything is
/// allocated. The interpreter checks its stored-handle budget against it.
struct OutputSize {
  uint64_t rows = 0;
  uint64_t cols = 0;
};

}  // namespace tabular::algebra

#endif  // TABULAR_ALGEBRA_OUTPUT_SIZE_H_
