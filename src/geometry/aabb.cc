#include "geometry/aabb.h"

namespace flat {
static_assert(sizeof(Aabb) == 6 * sizeof(double),
              "Aabb must stay a plain 6-double layout; the storage layer "
              "serializes it by memcpy and the box kernels read it as six "
              "doubles");
}  // namespace flat
