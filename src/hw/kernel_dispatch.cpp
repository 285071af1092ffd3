#include "hw/kernel_dispatch.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "hw/simd_kernels.hpp"

namespace create::simd {

namespace {

using namespace detail;

const KernelTable kScalarTable{Isa::Scalar,     &intGemmScalar,
                               &quantizeScalar, &absMaxScalar,
                               &matmulF32Scalar, &attentionScalar};
const KernelTable kSse2Table{Isa::Sse2,     &intGemmSse2,
                             &quantizeSse2, &absMaxSse2,
                             &matmulF32Sse2, &attentionSse2};
const KernelTable kAvx2Table{Isa::Avx2,     &intGemmAvx2,
                             &quantizeAvx2, &absMaxAvx2,
                             &matmulF32Avx2, &attentionAvx2};
const KernelTable kAvx512Table{Isa::Avx512Vnni, &intGemmAvx512,
                               &quantizeAvx512, &absMaxAvx512,
                               &matmulF32Avx512, &attentionAvx512};

const KernelTable*
tableFor(Isa isa)
{
    switch (isa) {
      case Isa::Scalar: return &kScalarTable;
      case Isa::Sse2: return &kSse2Table;
      case Isa::Avx2: return &kAvx2Table;
      case Isa::Avx512Vnni: return &kAvx512Table;
    }
    return &kScalarTable;
}

/** CPUID says the host can run `isa` AND the TU was really compiled for
 *  it (a tier whose TU fell back to delegating wrappers is never
 *  advertised -- forcing it would silently run a different kernel). */
bool
hostSupports(Isa isa)
{
    switch (isa) {
      case Isa::Scalar:
        return true;
      case Isa::Sse2:
        return sse2KernelsCompiled(); // base x86-64 ABI; no CPUID needed
      case Isa::Avx2:
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
        return avx2KernelsCompiled() && __builtin_cpu_supports("avx2");
#else
        return false;
#endif
      case Isa::Avx512Vnni:
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
        return avx512KernelsCompiled() &&
               __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512vnni");
#else
        return false;
#endif
    }
    return false;
}

std::atomic<const KernelTable*> gActive{nullptr};
std::string gForced; // CREATE_FORCE_ISA value seen at init ("" = none)
std::once_flag gInitOnce;

void
initOnce()
{
    std::call_once(gInitOnce, [] {
        Isa pick = best();
        if (const char* env = std::getenv("CREATE_FORCE_ISA")) {
            gForced = env;
            Isa forced;
            if (!parseIsa(gForced, &forced)) {
                std::fprintf(stderr,
                             "[simd] CREATE_FORCE_ISA=%s: unknown ISA "
                             "(expected scalar|sse2|avx2|avx512vnni); "
                             "using %s\n",
                             env, isaName(pick));
            } else if (!hostSupports(forced)) {
                std::fprintf(stderr,
                             "[simd] CREATE_FORCE_ISA=%s: not supported on "
                             "this host; using %s\n",
                             env, isaName(pick));
            } else {
                pick = forced;
            }
        }
        gActive.store(tableFor(pick), std::memory_order_release);
    });
}

} // namespace

void
packWeights(const std::int8_t* wq, std::int64_t k, std::int64_t n,
            std::vector<std::int8_t>& out)
{
    const std::int64_t cols = packedCols(n);
    out.resize(static_cast<std::size_t>((k + 1) / 2 * 2 * cols));
    std::int8_t* dst = out.data();
    for (std::int64_t kk = 0; kk < k; kk += 2) {
        const std::int8_t* w0 = wq + kk * n;
        const std::int8_t* w1 = kk + 1 < k ? w0 + n : nullptr;
        for (std::int64_t j = 0; j < cols; ++j, dst += 2) {
            dst[0] = j < n ? w0[j] : 0;
            dst[1] = j < n && w1 ? w1[j] : 0;
        }
    }
}

const KernelTable&
active()
{
    const KernelTable* t = gActive.load(std::memory_order_acquire);
    if (!t) {
        initOnce();
        t = gActive.load(std::memory_order_acquire);
    }
    return *t;
}

Isa
activeIsa()
{
    return active().isa;
}

bool
setActive(Isa isa)
{
    initOnce();
    if (!hostSupports(isa))
        return false;
    gActive.store(tableFor(isa), std::memory_order_release);
    return true;
}

std::vector<Isa>
supported()
{
    std::vector<Isa> out;
    for (Isa isa :
         {Isa::Scalar, Isa::Sse2, Isa::Avx2, Isa::Avx512Vnni}) {
        if (hostSupports(isa))
            out.push_back(isa);
    }
    return out;
}

Isa
best()
{
    Isa pick = Isa::Scalar;
    for (Isa isa : {Isa::Sse2, Isa::Avx2, Isa::Avx512Vnni}) {
        if (hostSupports(isa))
            pick = isa;
    }
    return pick;
}

const char*
isaName(Isa isa)
{
    switch (isa) {
      case Isa::Scalar: return "scalar";
      case Isa::Sse2: return "sse2";
      case Isa::Avx2: return "avx2";
      case Isa::Avx512Vnni: return "avx512vnni";
    }
    return "?";
}

bool
parseIsa(const std::string& name, Isa* out)
{
    // Case-insensitive: the value usually arrives via the
    // CREATE_FORCE_ISA environment variable, typed by hand.
    std::string low(name);
    for (char& c : low)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (low == "scalar")
        *out = Isa::Scalar;
    else if (low == "sse2")
        *out = Isa::Sse2;
    else if (low == "avx2")
        *out = Isa::Avx2;
    else if (low == "avx512vnni" || low == "avx512")
        *out = Isa::Avx512Vnni;
    else
        return false;
    return true;
}

Isa
applyForceIsa(const std::string& value)
{
    initOnce();
    Isa pick = best();
    Isa forced;
    if (!parseIsa(value, &forced)) {
        std::fprintf(stderr,
                     "[simd] force isa '%s': unknown ISA (expected "
                     "scalar|sse2|avx2|avx512vnni); using %s\n",
                     value.c_str(), isaName(pick));
    } else if (!hostSupports(forced)) {
        std::fprintf(stderr,
                     "[simd] force isa '%s': not supported on this host; "
                     "using %s\n",
                     value.c_str(), isaName(pick));
    } else {
        pick = forced;
    }
    gActive.store(tableFor(pick), std::memory_order_release);
    return pick;
}

std::string
report()
{
    initOnce();
    std::string s = "isa=";
    s += isaName(activeIsa());
    s += " (supported:";
    for (Isa isa : supported()) {
        s += ' ';
        s += isaName(isa);
    }
    s += "; forced: ";
    s += gForced.empty() ? "no" : gForced.c_str();
    s += ')';
    return s;
}

} // namespace create::simd
