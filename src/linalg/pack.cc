#include "linalg/pack.hh"

#include <new>

#include "linalg/gemm.hh"

namespace tie {
namespace pack {

void *
alignedAlloc(size_t bytes)
{
    if (bytes == 0)
        return nullptr;
    // The aligned operator new, so allocation hooks (the zero-allocation
    // tests) see every packed buffer and session arena.
    return ::operator new(bytes, std::align_val_t{kAlign});
}

void
alignedFree(void *p)
{
    ::operator delete(p, std::align_val_t{kAlign});
}

void
addPackStats(size_t panels, size_t bytes)
{
    if (!obs::enabled())
        return;
    gemm::KernelStats &ks = gemm::KernelStats::get();
    ks.packed_panels.add(panels);
    ks.pack_bytes.add(bytes);
}

} // namespace pack
} // namespace tie
