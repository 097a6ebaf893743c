/* Native kernels for the Fv fast path: Goldilocks arithmetic, radix-2 NTT,
   Keccak-f[1600], and the fused Reed-Solomon row encode, operating directly
   on the int64 Bigarray layout of Nocap_vec.Fv.

   Contract with the OCaml side (see DESIGN.md Sec. 13):

   - Every kernel is BIT-EXACT against its reference in test/oracle for
     every input, canonical or not: the scalar C code follows the
     Zk_field.Gf formulas operation for operation, and the SIMD variants
     evaluate the same per-lane expressions, so results never depend on
     which tier ran.
   - Bounds and shape validation happen in OCaml before the call; the C
     side trusts its arguments (the kernel stubs are [@@noalloc] leaf calls
     that never touch the OCaml heap or run the GC; caml_nocap_spill_io
     is not: it releases the runtime lock around the syscall and may
     raise).
   - SIMD selection is runtime: the scalar fallback compiles on every
     target the repo builds on; AVX2 bodies carry
     __attribute__((target("avx2"))) so the object file stays portable and
     the choice is made per call from __builtin_cpu_supports. On aarch64
     the add/sub lanes use NEON; everything else takes the scalar path.
     The g_simd level starts at 2, which allows every SIMD tier (the 8-lane
     AVX-512F Keccak where the CPU has it); the OCaml test hooks
     (Native.with_avx2_only, Native.with_scalar_c) lower it to 1, which
     stops at the AVX2/NEON bodies, or 0, which pins every kernel to scalar
     C: that is how the tests and the bench reach the lower tiers on a
     wider host. */

#include <errno.h>
#include <stdint.h>
#include <stddef.h>
#include <string.h>
#include <unistd.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#if defined(__x86_64__)
#include <immintrin.h>
#define NOCAP_X86_64 1
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#endif

/* --- runtime feature detection / SIMD level ------------------------------ */

static int g_simd = 2; /* 0 scalar, 1 AVX2/NEON, 2 also AVX-512F; lowered by the test hooks */

#if defined(NOCAP_X86_64)
static int g_have_avx2 = -1;
static int have_avx2(void)
{
  if (g_have_avx2 < 0) g_have_avx2 = __builtin_cpu_supports("avx2") ? 1 : 0;
  return g_have_avx2;
}
static int g_have_avx512f = -1;
static int have_avx512f(void)
{
  if (g_have_avx512f < 0) g_have_avx512f = __builtin_cpu_supports("avx512f") ? 1 : 0;
  return g_have_avx512f;
}
#else
static int have_avx2(void) { return 0; }
static int have_avx512f(void) { return 0; }
#endif

static int have_neon(void)
{
#if defined(__aarch64__)
  return 1;
#else
  return 0;
#endif
}

CAMLprim value caml_nocap_cpu_features(value unit)
{
  int f = 0;
  (void)unit;
  if (have_avx2()) f |= 1;
  if (have_neon()) f |= 2;
  if (have_avx512f()) f |= 4;
  return Val_int(f);
}

CAMLprim value caml_nocap_set_simd(value v)
{
  g_simd = Int_val(v);
  return Val_unit;
}

CAMLprim value caml_nocap_simd_level(value unit)
{
  (void)unit;
  return Val_int(g_simd);
}

/* --- scalar Goldilocks arithmetic ----------------------------------------
   p = 2^64 - 2^32 + 1, epsilon = 2^32 - 1 = 2^64 mod p. The add/sub/reduce
   sequences below are literal translations of Zk_field.Gf, so outputs are
   bit-identical even for non-canonical (>= p) inputs. */

#define GL_P 0xFFFFFFFF00000001ULL
#define GL_EPS 0xFFFFFFFFULL

static inline uint64_t gl_add(uint64_t a, uint64_t b)
{
  uint64_t s = a + b;
  if (s < a) s += GL_EPS;
  if (s >= GL_P) s -= GL_P;
  return s;
}

static inline uint64_t gl_sub(uint64_t a, uint64_t b)
{
  uint64_t d = a - b;
  if (a < b) d -= GL_EPS;
  return d;
}

static inline uint64_t gl_reduce128(uint64_t lo, uint64_t hi)
{
  uint64_t hi_hi = hi >> 32;
  uint64_t hi_lo = hi & GL_EPS;
  uint64_t t0 = lo - hi_hi;
  if (lo < hi_hi) t0 -= GL_EPS;
  uint64_t t1 = hi_lo * GL_EPS; /* both < 2^32: no wrap */
  uint64_t t2 = t0 + t1;
  if (t2 < t0) t2 += GL_EPS;
  if (t2 >= GL_P) t2 -= GL_P;
  return t2;
}

static inline uint64_t gl_mul(uint64_t a, uint64_t b)
{
#if defined(__SIZEOF_INT128__)
  unsigned __int128 p = (unsigned __int128)a * b;
  return gl_reduce128((uint64_t)p, (uint64_t)(p >> 64));
#else
  /* 32-bit decomposition, exactly as the OCaml Gf.mul. */
  uint64_t a_lo = a & GL_EPS, a_hi = a >> 32;
  uint64_t b_lo = b & GL_EPS, b_hi = b >> 32;
  uint64_t ll = a_lo * b_lo, lh = a_lo * b_hi, hl = a_hi * b_lo, hh = a_hi * b_hi;
  uint64_t t = hl + (ll >> 32);
  uint64_t u = lh + (t & GL_EPS);
  uint64_t lo = (u << 32) | (ll & GL_EPS);
  uint64_t hi = hh + (t >> 32) + (u >> 32);
  return gl_reduce128(lo, hi);
#endif
}

/* n_inv = n^(p-2): one-off per inverse-NTT plan, so a plain square-and-
   multiply is plenty. */
static uint64_t gl_pow(uint64_t x, uint64_t e)
{
  uint64_t acc = 1, base = x;
  while (e != 0) {
    if (e & 1) acc = gl_mul(acc, base);
    base = gl_mul(base, base);
    e >>= 1;
  }
  return acc;
}

/* --- AVX2 Goldilocks lanes ----------------------------------------------- */

#if defined(NOCAP_X86_64)

/* Unsigned 64-bit compare: bias both sides by 2^63 and use the signed
   compare AVX2 provides. */
#define GL_SIGN64 0x8000000000000000ULL

__attribute__((target("avx2"))) static inline __m256i gl4_ltu(__m256i a, __m256i b)
{
  const __m256i sign = _mm256_set1_epi64x((long long)GL_SIGN64);
  return _mm256_cmpgt_epi64(_mm256_xor_si256(b, sign), _mm256_xor_si256(a, sign));
}

__attribute__((target("avx2"))) static inline __m256i gl4_add(__m256i a, __m256i b)
{
  const __m256i eps = _mm256_set1_epi64x((long long)GL_EPS);
  const __m256i p = _mm256_set1_epi64x((long long)GL_P);
  __m256i s = _mm256_add_epi64(a, b);
  __m256i carry = gl4_ltu(s, a); /* wrapped past 2^64 */
  s = _mm256_add_epi64(s, _mm256_and_si256(carry, eps));
  __m256i lt_p = gl4_ltu(s, p);
  return _mm256_sub_epi64(s, _mm256_andnot_si256(lt_p, p));
}

__attribute__((target("avx2"))) static inline __m256i gl4_sub(__m256i a, __m256i b)
{
  const __m256i eps = _mm256_set1_epi64x((long long)GL_EPS);
  __m256i d = _mm256_sub_epi64(a, b);
  __m256i borrow = gl4_ltu(a, b);
  return _mm256_sub_epi64(d, _mm256_and_si256(borrow, eps));
}

/* Exact 128-bit product from four 32x32 partials (mul_epu32 multiplies the
   low halves of each 64-bit lane), combined with the same carry pattern as
   the scalar code — the partial sums provably fit in 64 bits — then the
   same shift-based reduction. */
__attribute__((target("avx2"))) static inline __m256i gl4_mul(__m256i a, __m256i b)
{
  const __m256i mask32 = _mm256_set1_epi64x((long long)GL_EPS);
  const __m256i p = _mm256_set1_epi64x((long long)GL_P);
  __m256i a_hi = _mm256_srli_epi64(a, 32);
  __m256i b_hi = _mm256_srli_epi64(b, 32);
  __m256i ll = _mm256_mul_epu32(a, b);
  __m256i lh = _mm256_mul_epu32(a, b_hi);
  __m256i hl = _mm256_mul_epu32(a_hi, b);
  __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  __m256i t = _mm256_add_epi64(hl, _mm256_srli_epi64(ll, 32));
  __m256i u = _mm256_add_epi64(lh, _mm256_and_si256(t, mask32));
  __m256i lo = _mm256_or_si256(_mm256_slli_epi64(u, 32), _mm256_and_si256(ll, mask32));
  __m256i hi =
      _mm256_add_epi64(hh, _mm256_add_epi64(_mm256_srli_epi64(t, 32), _mm256_srli_epi64(u, 32)));
  /* reduce128 */
  const __m256i eps = mask32;
  __m256i hi_hi = _mm256_srli_epi64(hi, 32);
  __m256i hi_lo = _mm256_and_si256(hi, mask32);
  __m256i t0 = _mm256_sub_epi64(lo, hi_hi);
  __m256i borrow = gl4_ltu(lo, hi_hi);
  t0 = _mm256_sub_epi64(t0, _mm256_and_si256(borrow, eps));
  __m256i t1 = _mm256_mul_epu32(hi_lo, eps); /* both < 2^32: exact */
  __m256i t2 = _mm256_add_epi64(t0, t1);
  __m256i carry = gl4_ltu(t2, t0);
  t2 = _mm256_add_epi64(t2, _mm256_and_si256(carry, eps));
  __m256i lt_p = gl4_ltu(t2, p);
  return _mm256_sub_epi64(t2, _mm256_andnot_si256(lt_p, p));
}

#endif /* NOCAP_X86_64 */

/* --- elementwise Fv kernels ---------------------------------------------- */

#define BA_DATA(v) ((uint64_t *)Caml_ba_data_val(v))
#define BA_DIM(v) (Caml_ba_array_val(v)->dim[0])

#if defined(NOCAP_X86_64)
#define FV_LOOP_AVX2(name, body4, body1)                                                 \
  __attribute__((target("avx2"))) static void name(uint64_t *dst, const uint64_t *a,     \
                                                   const uint64_t *b, intnat n)          \
  {                                                                                      \
    intnat i = 0;                                                                        \
    for (; i + 4 <= n; i += 4) {                                                         \
      __m256i x = _mm256_loadu_si256((const __m256i *)(a + i));                          \
      __m256i y = _mm256_loadu_si256((const __m256i *)(b + i));                          \
      _mm256_storeu_si256((__m256i *)(dst + i), body4);                                  \
    }                                                                                    \
    for (; i < n; i++) dst[i] = body1;                                                   \
  }

FV_LOOP_AVX2(fv_add_avx2, gl4_add(x, y), gl_add(a[i], b[i]))
FV_LOOP_AVX2(fv_sub_avx2, gl4_sub(x, y), gl_sub(a[i], b[i]))
FV_LOOP_AVX2(fv_mul_avx2, gl4_mul(x, y), gl_mul(a[i], b[i]))

__attribute__((target("avx2"))) static void fv_scale_avx2(uint64_t *dst, const uint64_t *a,
                                                          uint64_t c, intnat n)
{
  const __m256i cv = _mm256_set1_epi64x((long long)c);
  intnat i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256((const __m256i *)(a + i));
    _mm256_storeu_si256((__m256i *)(dst + i), gl4_mul(cv, x));
  }
  for (; i < n; i++) dst[i] = gl_mul(c, a[i]);
}

__attribute__((target("avx2"))) static void fv_axpy_avx2(uint64_t *dst, uint64_t c,
                                                         const uint64_t *src, intnat n)
{
  const __m256i cv = _mm256_set1_epi64x((long long)c);
  intnat i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i d = _mm256_loadu_si256((const __m256i *)(dst + i));
    __m256i s = _mm256_loadu_si256((const __m256i *)(src + i));
    _mm256_storeu_si256((__m256i *)(dst + i), gl4_add(d, gl4_mul(cv, s)));
  }
  for (; i < n; i++) dst[i] = gl_add(dst[i], gl_mul(c, src[i]));
}

__attribute__((target("avx2"))) static void fv_lerp_avx2(uint64_t *dst, const uint64_t *a,
                                                         const uint64_t *b, uint64_t c,
                                                         intnat n)
{
  const __m256i cv = _mm256_set1_epi64x((long long)c);
  intnat i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256((const __m256i *)(a + i));
    __m256i y = _mm256_loadu_si256((const __m256i *)(b + i));
    _mm256_storeu_si256((__m256i *)(dst + i), gl4_add(x, gl4_mul(cv, gl4_sub(y, x))));
  }
  for (; i < n; i++) dst[i] = gl_add(a[i], gl_mul(c, gl_sub(b[i], a[i])));
}
#endif /* NOCAP_X86_64 */

#if defined(__aarch64__)
/* NEON covers the carry-propagation lanes (add/sub); mul and the sponges
   take the scalar path on ARM — see DESIGN.md Sec. 13. */
static void fv_add_neon(uint64_t *dst, const uint64_t *a, const uint64_t *b, intnat n)
{
  const uint64x2_t eps = vdupq_n_u64(GL_EPS);
  const uint64x2_t p = vdupq_n_u64(GL_P);
  intnat i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t x = vld1q_u64(a + i), y = vld1q_u64(b + i);
    uint64x2_t s = vaddq_u64(x, y);
    uint64x2_t carry = vcgtq_u64(x, s); /* s < x: wrapped */
    s = vaddq_u64(s, vandq_u64(carry, eps));
    uint64x2_t ge_p = vcgeq_u64(s, p);
    s = vsubq_u64(s, vandq_u64(ge_p, p));
    vst1q_u64(dst + i, s);
  }
  for (; i < n; i++) dst[i] = gl_add(a[i], b[i]);
}

static void fv_sub_neon(uint64_t *dst, const uint64_t *a, const uint64_t *b, intnat n)
{
  const uint64x2_t eps = vdupq_n_u64(GL_EPS);
  intnat i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t x = vld1q_u64(a + i), y = vld1q_u64(b + i);
    uint64x2_t d = vsubq_u64(x, y);
    uint64x2_t borrow = vcgtq_u64(y, x);
    d = vsubq_u64(d, vandq_u64(borrow, eps));
    vst1q_u64(dst + i, d);
  }
  for (; i < n; i++) dst[i] = gl_sub(a[i], b[i]);
}

#endif /* __aarch64__ */

CAMLprim value caml_nocap_fv_add(value vdst, value va, value vb)
{
  uint64_t *dst = BA_DATA(vdst);
  const uint64_t *a = BA_DATA(va), *b = BA_DATA(vb);
  intnat n = BA_DIM(vdst);
#if defined(NOCAP_X86_64)
  if (g_simd && have_avx2()) { fv_add_avx2(dst, a, b, n); return Val_unit; }
#elif defined(__aarch64__)
  if (g_simd) { fv_add_neon(dst, a, b, n); return Val_unit; }
#endif
  for (intnat i = 0; i < n; i++) dst[i] = gl_add(a[i], b[i]);
  return Val_unit;
}

CAMLprim value caml_nocap_fv_sub(value vdst, value va, value vb)
{
  uint64_t *dst = BA_DATA(vdst);
  const uint64_t *a = BA_DATA(va), *b = BA_DATA(vb);
  intnat n = BA_DIM(vdst);
#if defined(NOCAP_X86_64)
  if (g_simd && have_avx2()) { fv_sub_avx2(dst, a, b, n); return Val_unit; }
#elif defined(__aarch64__)
  if (g_simd) { fv_sub_neon(dst, a, b, n); return Val_unit; }
#endif
  for (intnat i = 0; i < n; i++) dst[i] = gl_sub(a[i], b[i]);
  return Val_unit;
}

CAMLprim value caml_nocap_fv_mul(value vdst, value va, value vb)
{
  uint64_t *dst = BA_DATA(vdst);
  const uint64_t *a = BA_DATA(va), *b = BA_DATA(vb);
  intnat n = BA_DIM(vdst);
#if defined(NOCAP_X86_64)
  if (g_simd && have_avx2()) { fv_mul_avx2(dst, a, b, n); return Val_unit; }
#endif
  for (intnat i = 0; i < n; i++) dst[i] = gl_mul(a[i], b[i]);
  return Val_unit;
}

CAMLprim value caml_nocap_fv_scale(value vdst, value va, value vc)
{
  uint64_t *dst = BA_DATA(vdst);
  const uint64_t *a = BA_DATA(va);
  uint64_t c = (uint64_t)Int64_val(vc);
  intnat n = BA_DIM(vdst);
#if defined(NOCAP_X86_64)
  if (g_simd && have_avx2()) { fv_scale_avx2(dst, a, c, n); return Val_unit; }
#endif
  for (intnat i = 0; i < n; i++) dst[i] = gl_mul(c, a[i]);
  return Val_unit;
}

CAMLprim value caml_nocap_fv_axpy(value vdst, value vc, value vsrc)
{
  uint64_t *dst = BA_DATA(vdst);
  const uint64_t *src = BA_DATA(vsrc);
  uint64_t c = (uint64_t)Int64_val(vc);
  intnat n = BA_DIM(vdst);
#if defined(NOCAP_X86_64)
  if (g_simd && have_avx2()) { fv_axpy_avx2(dst, c, src, n); return Val_unit; }
#endif
  for (intnat i = 0; i < n; i++) dst[i] = gl_add(dst[i], gl_mul(c, src[i]));
  return Val_unit;
}

/* dst[i] = a[i] + c * (b[i] - a[i]): the sumcheck fold and the round
   polynomial's line through (0, a) and (1, b) at t = c. dst may alias a
   or b (each element is read before it is written). */
CAMLprim value caml_nocap_fv_lerp(value vdst, value va, value vb, value vc)
{
  uint64_t *dst = BA_DATA(vdst);
  const uint64_t *a = BA_DATA(va), *b = BA_DATA(vb);
  uint64_t c = (uint64_t)Int64_val(vc);
  intnat n = BA_DIM(vdst);
#if defined(NOCAP_X86_64)
  if (g_simd && have_avx2()) { fv_lerp_avx2(dst, a, b, c, n); return Val_unit; }
#endif
  for (intnat i = 0; i < n; i++) dst[i] = gl_add(a[i], gl_mul(c, gl_sub(b[i], a[i])));
  return Val_unit;
}

/* One FRI fold block: dst[i] = (lo[i] + hi[i]) / 2 + coef_i * (lo[i] - hi[i])
   with coef_i = coef * w_inv^i, operation for operation Fri.fold_pair.
   The scalar body keeps Fri's running product; the AVX2 body runs four
   products, lane k at coef * w_inv^k, each advanced by w_inv^4 per step.
   gl_mul always returns the canonical residue, so both reach the same
   coef_i bits. dst may alias lo or hi. GL_INV2 is 1/2 mod p = (p + 1) / 2. */
#define GL_INV2 0x7FFFFFFF80000001ULL

static inline uint64_t fri_fold1(uint64_t a, uint64_t b, uint64_t coef)
{
  return gl_add(gl_mul(GL_INV2, gl_add(a, b)), gl_mul(coef, gl_sub(a, b)));
}

#if defined(NOCAP_X86_64)
/* Returns coef_i for the first element it leaves to the caller. */
__attribute__((target("avx2"))) static uint64_t fri_fold_avx2(uint64_t *dst, const uint64_t *lo,
                                                              const uint64_t *hi, uint64_t coef,
                                                              uint64_t w, intnat *pi, intnat n)
{
  uint64_t c[4] = { coef, 0, 0, 0 };
  for (int k = 1; k < 4; k++) c[k] = gl_mul(c[k - 1], w);
  uint64_t w2 = gl_mul(w, w);
  const __m256i w4 = _mm256_set1_epi64x((long long)gl_mul(w2, w2));
  const __m256i inv2 = _mm256_set1_epi64x((long long)GL_INV2);
  __m256i cv = _mm256_loadu_si256((const __m256i *)c);
  intnat i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256((const __m256i *)(lo + i));
    __m256i y = _mm256_loadu_si256((const __m256i *)(hi + i));
    _mm256_storeu_si256((__m256i *)(dst + i),
                        gl4_add(gl4_mul(inv2, gl4_add(x, y)), gl4_mul(cv, gl4_sub(x, y))));
    cv = gl4_mul(cv, w4);
  }
  _mm256_storeu_si256((__m256i *)c, cv);
  *pi = i;
  return c[0];
}
#endif

CAMLprim value caml_nocap_fri_fold(value vdst, value vlo, value vhi, value vcoef, value vw)
{
  uint64_t *dst = BA_DATA(vdst);
  const uint64_t *lo = BA_DATA(vlo), *hi = BA_DATA(vhi);
  uint64_t coef = (uint64_t)Int64_val(vcoef), w = (uint64_t)Int64_val(vw);
  intnat n = BA_DIM(vdst);
  intnat i = 0;
#if defined(NOCAP_X86_64)
  if (g_simd && have_avx2()) coef = fri_fold_avx2(dst, lo, hi, coef, w, &i, n);
#endif
  for (; i < n; i++) {
    dst[i] = fri_fold1(lo[i], hi[i], coef);
    coef = gl_mul(coef, w);
  }
  return Val_unit;
}

/* --- fused sumcheck round -------------------------------------------------
   One pass of a sumcheck round for the two production combiners: kind 0 is
   eq * (a * b - c) over the tables [eq; a; b; c] (degree 3), kind 1 is
   a * b over [a; b] (degree 2). Pair i of table j is (lo, hi). With no
   destination, lo = src[2j][i] and hi = src[2j + 1][i]. With one, the
   pass first folds the previous generation's quarters src[4j .. 4j + 3]
   with the challenge r, lo = q0 + r * (q2 - q0) and hi = q1 + r * (q3 -
   q1) (caml_nocap_fv_lerp operation for operation), and stores them to
   dst[2j][i] and dst[2j + 1][i]. g[t], t = 0..degree, is the sum
   over pairs [i0, i1) of the combiner at lo + t * (hi - lo), walked
   add-only: t = 0 and 1 are lo and hi, and each further t adds hi - lo
   once more. Every term the sums add is a gl_mul result, so canonical,
   and Goldilocks addition of canonical values is exact: the AVX2 body's
   lane sums reach the scalar body's bits. */

typedef struct {
  const uint64_t *src[16];
  uint64_t *dst[8];
  int fold;
  uint64_t r;
} sc_args;

static inline void sc_pair(const sc_args *a, int j, intnat i, uint64_t *lo, uint64_t *hi)
{
  if (a->fold) {
    const uint64_t *const *q = a->src + (4 * j);
    uint64_t x = q[0][i], y = q[1][i];
    x = gl_add(x, gl_mul(a->r, gl_sub(q[2][i], x)));
    y = gl_add(y, gl_mul(a->r, gl_sub(q[3][i], y)));
    a->dst[2 * j][i] = x;
    a->dst[(2 * j) + 1][i] = y;
    *lo = x;
    *hi = y;
  } else {
    *lo = a->src[2 * j][i];
    *hi = a->src[(2 * j) + 1][i];
  }
}

static inline uint64_t sc_eq_abc(uint64_t e, uint64_t x, uint64_t y, uint64_t z)
{
  return gl_mul(e, gl_sub(gl_mul(x, y), z));
}

static void sc_round_scalar(int kind, const sc_args *a, intnat i, intnat n, uint64_t *g)
{
  for (; i < n; i++) {
    if (kind == 0) {
      uint64_t e0, e1, x0, x1, y0, y1, z0, z1;
      sc_pair(a, 0, i, &e0, &e1);
      sc_pair(a, 1, i, &x0, &x1);
      sc_pair(a, 2, i, &y0, &y1);
      sc_pair(a, 3, i, &z0, &z1);
      uint64_t de = gl_sub(e1, e0), dx = gl_sub(x1, x0), dy = gl_sub(y1, y0),
               dz = gl_sub(z1, z0);
      g[0] = gl_add(g[0], sc_eq_abc(e0, x0, y0, z0));
      g[1] = gl_add(g[1], sc_eq_abc(e1, x1, y1, z1));
      for (int t = 2; t <= 3; t++) {
        e1 = gl_add(e1, de);
        x1 = gl_add(x1, dx);
        y1 = gl_add(y1, dy);
        z1 = gl_add(z1, dz);
        g[t] = gl_add(g[t], sc_eq_abc(e1, x1, y1, z1));
      }
    } else {
      uint64_t x0, x1, y0, y1;
      sc_pair(a, 0, i, &x0, &x1);
      sc_pair(a, 1, i, &y0, &y1);
      uint64_t dx = gl_sub(x1, x0), dy = gl_sub(y1, y0);
      g[0] = gl_add(g[0], gl_mul(x0, y0));
      g[1] = gl_add(g[1], gl_mul(x1, y1));
      g[2] = gl_add(g[2], gl_mul(gl_add(x1, dx), gl_add(y1, dy)));
    }
  }
}

#if defined(NOCAP_X86_64)
__attribute__((target("avx2"))) static inline void sc4_pair(const sc_args *a, int j, intnat i,
                                                            __m256i r, __m256i *lo, __m256i *hi)
{
  if (a->fold) {
    const uint64_t *const *q = a->src + (4 * j);
    __m256i x = _mm256_loadu_si256((const __m256i *)(q[0] + i));
    __m256i y = _mm256_loadu_si256((const __m256i *)(q[1] + i));
    x = gl4_add(x, gl4_mul(r, gl4_sub(_mm256_loadu_si256((const __m256i *)(q[2] + i)), x)));
    y = gl4_add(y, gl4_mul(r, gl4_sub(_mm256_loadu_si256((const __m256i *)(q[3] + i)), y)));
    _mm256_storeu_si256((__m256i *)(a->dst[2 * j] + i), x);
    _mm256_storeu_si256((__m256i *)(a->dst[(2 * j) + 1] + i), y);
    *lo = x;
    *hi = y;
  } else {
    *lo = _mm256_loadu_si256((const __m256i *)(a->src[2 * j] + i));
    *hi = _mm256_loadu_si256((const __m256i *)(a->src[(2 * j) + 1] + i));
  }
}

__attribute__((target("avx2"))) static inline __m256i sc4_eq_abc(__m256i e, __m256i x, __m256i y,
                                                                 __m256i z)
{
  return gl4_mul(e, gl4_sub(gl4_mul(x, y), z));
}

/* Four pairs per step into four-lane sums, added into g; returns the
   first pair it leaves to the scalar body. */
__attribute__((target("avx2"))) static intnat sc_round_avx2(int kind, const sc_args *a, intnat i,
                                                            intnat n, uint64_t *g)
{
  const __m256i r = _mm256_set1_epi64x((long long)a->r);
  __m256i acc[4];
  for (int t = 0; t < 4; t++) acc[t] = _mm256_setzero_si256();
  if (kind == 0) {
    for (; i + 4 <= n; i += 4) {
      __m256i e0, e1, x0, x1, y0, y1, z0, z1;
      sc4_pair(a, 0, i, r, &e0, &e1);
      sc4_pair(a, 1, i, r, &x0, &x1);
      sc4_pair(a, 2, i, r, &y0, &y1);
      sc4_pair(a, 3, i, r, &z0, &z1);
      __m256i de = gl4_sub(e1, e0), dx = gl4_sub(x1, x0), dy = gl4_sub(y1, y0),
              dz = gl4_sub(z1, z0);
      acc[0] = gl4_add(acc[0], sc4_eq_abc(e0, x0, y0, z0));
      acc[1] = gl4_add(acc[1], sc4_eq_abc(e1, x1, y1, z1));
      e1 = gl4_add(e1, de);
      x1 = gl4_add(x1, dx);
      y1 = gl4_add(y1, dy);
      z1 = gl4_add(z1, dz);
      acc[2] = gl4_add(acc[2], sc4_eq_abc(e1, x1, y1, z1));
      e1 = gl4_add(e1, de);
      x1 = gl4_add(x1, dx);
      y1 = gl4_add(y1, dy);
      z1 = gl4_add(z1, dz);
      acc[3] = gl4_add(acc[3], sc4_eq_abc(e1, x1, y1, z1));
    }
  } else {
    for (; i + 4 <= n; i += 4) {
      __m256i x0, x1, y0, y1;
      sc4_pair(a, 0, i, r, &x0, &x1);
      sc4_pair(a, 1, i, r, &y0, &y1);
      __m256i dx = gl4_sub(x1, x0), dy = gl4_sub(y1, y0);
      acc[0] = gl4_add(acc[0], gl4_mul(x0, y0));
      acc[1] = gl4_add(acc[1], gl4_mul(x1, y1));
      acc[2] = gl4_add(acc[2], gl4_mul(gl4_add(x1, dx), gl4_add(y1, dy)));
    }
  }
  for (int t = 0; t < 4; t++) {
    uint64_t lane[4];
    _mm256_storeu_si256((__m256i *)lane, acc[t]);
    for (int k = 0; k < 4; k++) g[t] = gl_add(g[t], lane[k]);
  }
  return i;
}
#endif

/* g must hold 4 entries; g[degree + 1 ..] is left zero. */
CAMLprim value caml_nocap_sumcheck_round(value vkind, value vsrc, value vdst, value vlo,
                                         value vhi, value vr, value vg)
{
  sc_args a;
  int kind = Int_val(vkind);
  mlsize_t nsrc = Wosize_val(vsrc), ndst = Wosize_val(vdst);
  for (mlsize_t j = 0; j < nsrc; j++) a.src[j] = BA_DATA(Field(vsrc, j));
  for (mlsize_t j = 0; j < ndst; j++) a.dst[j] = BA_DATA(Field(vdst, j));
  a.fold = ndst > 0;
  a.r = (uint64_t)Int64_val(vr);
  uint64_t *g = BA_DATA(vg);
  for (int t = 0; t < 4; t++) g[t] = 0;
  intnat i = Long_val(vlo), n = Long_val(vhi);
#if defined(NOCAP_X86_64)
  if (g_simd && have_avx2()) i = sc_round_avx2(kind, &a, i, n, g);
#endif
  sc_round_scalar(kind, &a, i, n, g);
  return Val_unit;
}

CAMLprim value caml_nocap_sumcheck_round_byte(value *argv, int argn)
{
  (void)argn;
  return caml_nocap_sumcheck_round(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                                   argv[6]);
}

/* --- sparse matrix MLE ----------------------------------------------------
   The Spartan verifier's walk behind Sparse.mle_eval_split: per row the sum of v * col_hi[c >> cs] *
   col_lo[c & cmask] over its nonzeros, times row_lo[r & rmask]; per block
   of 2^rs rows the sum of those, times row_hi[block]. The CSR arrays are
   OCaml int arrays, the tables int64 Bigarrays; every lo length is a power
   of two and every index in range (checked in OCaml). Gathers dominate, so
   there is no SIMD body. */

static intnat log2_pow2(intnat n)
{
  intnat s = 0;
  while (((intnat)1 << s) < n) s++;
  return s;
}

int64_t caml_nocap_csr_eval(value vrow_ptr, value vcol_idx, value vvals, value vrow_hi,
                            value vrow_lo, value vcol_hi, value vcol_lo)
{
  const uint64_t *vals = BA_DATA(vvals);
  const uint64_t *row_hi = BA_DATA(vrow_hi), *row_lo = BA_DATA(vrow_lo);
  const uint64_t *col_hi = BA_DATA(vcol_hi), *col_lo = BA_DATA(vcol_lo);
  intnat nrows = (intnat)Wosize_val(vrow_ptr) - 1;
  intnat rs = log2_pow2(BA_DIM(vrow_lo)), cs = log2_pow2(BA_DIM(vcol_lo));
  intnat rmask = BA_DIM(vrow_lo) - 1;
  uint64_t cmask = (uint64_t)BA_DIM(vcol_lo) - 1;
  uint64_t acc = 0;
  for (intnat h = 0; h < (nrows + rmask) >> rs; h++) {
    intnat r1 = (h + 1) << rs < nrows ? (h + 1) << rs : nrows;
    uint64_t blk = 0;
    for (intnat r = h << rs; r < r1; r++) {
      intnat k0 = Long_val(Field(vrow_ptr, r)), k1 = Long_val(Field(vrow_ptr, r + 1));
      if (k0 >= k1) continue;
      uint64_t row = 0;
      for (intnat k = k0; k < k1; k++) {
        uint64_t c = (uint64_t)Long_val(Field(vcol_idx, k));
        row = gl_add(row, gl_mul(gl_mul(vals[k], col_hi[c >> cs]), col_lo[c & cmask]));
      }
      blk = gl_add(blk, gl_mul(row_lo[r & rmask], row));
    }
    acc = gl_add(acc, gl_mul(row_hi[h], blk));
  }
  return (int64_t)acc;
}

CAMLprim value caml_nocap_csr_eval_byte(value *argv, int argn)
{
  (void)argn;
  return caml_copy_int64(
      caml_nocap_csr_eval(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]));
}

/* --- radix-2 NTT ---------------------------------------------------------
   Same algorithm and operation order as Ntt.Gf_fv.transform: bit-reverse,
   then log n butterfly passes against the shared twiddle table
   (tw[j * stride], stride = n / len). Butterflies within a pass are
   independent, so the AVX2 pass computes identical per-lane expressions in
   a different order without changing a single output bit. */

static void gl_bit_reverse(uint64_t *a, intnat n, int log_n)
{
  for (intnat i = 0; i < n; i++) {
    intnat j = 0, x = i;
    for (int k = 0; k < log_n; k++) {
      j = (j << 1) | (x & 1);
      x >>= 1;
    }
    if (j > i) {
      uint64_t t = a[i];
      a[i] = a[j];
      a[j] = t;
    }
  }
}

#if defined(NOCAP_X86_64)
__attribute__((target("avx2"))) static void ntt_pass_avx2(uint64_t *a, const uint64_t *tw,
                                                          intnat n, intnat len)
{
  intnat half = len >> 1;
  intnat stride = n / len;
  for (intnat k = 0; k < n; k += len) {
    intnat j = 0;
    for (; j + 4 <= half; j += 4) {
      __m256i w;
      if (stride == 1)
        w = _mm256_loadu_si256((const __m256i *)(tw + j));
      else
        w = _mm256_i64gather_epi64((const long long *)tw,
                                   _mm256_setr_epi64x(j * stride, (j + 1) * stride,
                                                      (j + 2) * stride, (j + 3) * stride),
                                   8);
      __m256i u = _mm256_loadu_si256((const __m256i *)(a + k + j));
      __m256i v = _mm256_loadu_si256((const __m256i *)(a + k + j + half));
      __m256i t = gl4_mul(w, v);
      _mm256_storeu_si256((__m256i *)(a + k + j), gl4_add(u, t));
      _mm256_storeu_si256((__m256i *)(a + k + j + half), gl4_sub(u, t));
    }
    for (; j < half; j++) {
      uint64_t w = tw[j * stride];
      uint64_t u = a[k + j];
      uint64_t t = gl_mul(w, a[k + j + half]);
      a[k + j] = gl_add(u, t);
      a[k + j + half] = gl_sub(u, t);
    }
  }
}
#endif

static void gl_ntt(uint64_t *a, intnat n, const uint64_t *tw)
{
  if (n < 2) return;
  int log_n = 0;
  while (((intnat)1 << log_n) < n) log_n++;
  gl_bit_reverse(a, n, log_n);
  int use_avx2 = 0;
#if defined(NOCAP_X86_64)
  use_avx2 = g_simd && have_avx2();
#endif
  for (intnat len = 2; len <= n; len <<= 1) {
    intnat half = len >> 1;
    intnat stride = n / len;
#if defined(NOCAP_X86_64)
    if (use_avx2 && half >= 4) {
      ntt_pass_avx2(a, tw, n, len);
      continue;
    }
#else
    (void)use_avx2;
#endif
    for (intnat k = 0; k < n; k += len) {
      for (intnat j = 0; j < half; j++) {
        uint64_t w = tw[j * stride];
        uint64_t u = a[k + j];
        uint64_t t = gl_mul(w, a[k + j + half]);
        a[k + j] = gl_add(u, t);
        a[k + j + half] = gl_sub(u, t);
      }
    }
  }
}

CAMLprim value caml_nocap_ntt_forward(value vbuf, value vtw)
{
  gl_ntt(BA_DATA(vbuf), BA_DIM(vbuf), BA_DATA(vtw));
  return Val_unit;
}

CAMLprim value caml_nocap_ntt_inverse(value vbuf, value vtw, value vninv)
{
  uint64_t *a = BA_DATA(vbuf);
  intnat n = BA_DIM(vbuf);
  uint64_t n_inv = (uint64_t)Int64_val(vninv);
  gl_ntt(a, n, BA_DATA(vtw));
#if defined(NOCAP_X86_64)
  if (g_simd && have_avx2()) {
    fv_scale_avx2(a, a, n_inv, n);
    return Val_unit;
  }
#endif
  for (intnat i = 0; i < n; i++) a[i] = gl_mul(a[i], n_inv);
  return Val_unit;
}

/* Fused RS row encode: dst[0..n) = src, dst[n..m) = 0, then the in-place
   forward NTT of the whole codeword — one pass, no OCaml round trips. */
CAMLprim value caml_nocap_rs_encode_row(value vsrc, value vdst, value vtw)
{
  const uint64_t *src = BA_DATA(vsrc);
  uint64_t *dst = BA_DATA(vdst);
  intnat n = BA_DIM(vsrc);
  intnat m = BA_DIM(vdst);
  memcpy(dst, src, (size_t)n * 8);
  memset(dst + n, 0, (size_t)(m - n) * 8);
  gl_ntt(dst, m, BA_DATA(vtw));
  return Val_unit;
}

/* --- Keccak-f[1600] ------------------------------------------------------ */

static const uint64_t keccak_rc[24] = {
  0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808AULL,
  0x8000000080008000ULL, 0x000000000000808BULL, 0x0000000080000001ULL,
  0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008AULL,
  0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000AULL,
  0x000000008000808BULL, 0x800000000000008BULL, 0x8000000000008089ULL,
  0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
  0x000000000000800AULL, 0x800000008000000AULL, 0x8000000080008081ULL,
  0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

/* The permutation is written once, as a macro over the lane type, and
   instantiated for one state in uint64_t locals (keccak_f1600_x1) and for four
   states in __m256i locals (keccak_f1600_x4). The 25 lanes live in named
   locals a0..a24 (index x + 5y); each round reads one set of locals and
   writes the other, so two rounds per loop trip ping-pong between the a and
   e sets with no copy. Theta, rho, pi, chi and iota are spelled out lane by
   lane with the rotation amounts as literals: no % indexing, no rotation
   table, no scratch arrays. Within a round chi runs plane by plane, so only
   five rho/pi outputs (b0..b4) are live at once.

   Plane Y, position X of the rho/pi output takes lane (x, X) with
   x = (X + 3Y) mod 5, theta-corrected by d[x] and rotated by its rho
   offset; the expansion below is that formula evaluated for all 25
   (X, Y). XOR/ANDN/ROL are the lane type's ops, ANDN(p, q) = ~p & q, and
   ROL is never asked for a zero rotation. */

#define KECCAK_ROUND(T, I, O, RC, XOR, ANDN, ROL)                \
  do {                                                           \
    T c0 = XOR(XOR(XOR(XOR(I##0, I##5), I##10), I##15), I##20);  \
    T c1 = XOR(XOR(XOR(XOR(I##1, I##6), I##11), I##16), I##21);  \
    T c2 = XOR(XOR(XOR(XOR(I##2, I##7), I##12), I##17), I##22);  \
    T c3 = XOR(XOR(XOR(XOR(I##3, I##8), I##13), I##18), I##23);  \
    T c4 = XOR(XOR(XOR(XOR(I##4, I##9), I##14), I##19), I##24);  \
    T d0 = XOR(c4, ROL(c1, 1));                                  \
    T d1 = XOR(c0, ROL(c2, 1));                                  \
    T d2 = XOR(c1, ROL(c3, 1));                                  \
    T d3 = XOR(c2, ROL(c4, 1));                                  \
    T d4 = XOR(c3, ROL(c0, 1));                                  \
    T b0, b1, b2, b3, b4;                                        \
    b0 = XOR(I##0, d0);                                          \
    b1 = ROL(XOR(I##6, d1), 44);                                 \
    b2 = ROL(XOR(I##12, d2), 43);                                \
    b3 = ROL(XOR(I##18, d3), 21);                                \
    b4 = ROL(XOR(I##24, d4), 14);                                \
    O##0 = XOR(XOR(b0, ANDN(b1, b2)), RC);                       \
    O##1 = XOR(b1, ANDN(b2, b3));                                \
    O##2 = XOR(b2, ANDN(b3, b4));                                \
    O##3 = XOR(b3, ANDN(b4, b0));                                \
    O##4 = XOR(b4, ANDN(b0, b1));                                \
    b0 = ROL(XOR(I##3, d3), 28);                                 \
    b1 = ROL(XOR(I##9, d4), 20);                                 \
    b2 = ROL(XOR(I##10, d0), 3);                                 \
    b3 = ROL(XOR(I##16, d1), 45);                                \
    b4 = ROL(XOR(I##22, d2), 61);                                \
    O##5 = XOR(b0, ANDN(b1, b2));                                \
    O##6 = XOR(b1, ANDN(b2, b3));                                \
    O##7 = XOR(b2, ANDN(b3, b4));                                \
    O##8 = XOR(b3, ANDN(b4, b0));                                \
    O##9 = XOR(b4, ANDN(b0, b1));                                \
    b0 = ROL(XOR(I##1, d1), 1);                                  \
    b1 = ROL(XOR(I##7, d2), 6);                                  \
    b2 = ROL(XOR(I##13, d3), 25);                                \
    b3 = ROL(XOR(I##19, d4), 8);                                 \
    b4 = ROL(XOR(I##20, d0), 18);                                \
    O##10 = XOR(b0, ANDN(b1, b2));                               \
    O##11 = XOR(b1, ANDN(b2, b3));                               \
    O##12 = XOR(b2, ANDN(b3, b4));                               \
    O##13 = XOR(b3, ANDN(b4, b0));                               \
    O##14 = XOR(b4, ANDN(b0, b1));                               \
    b0 = ROL(XOR(I##4, d4), 27);                                 \
    b1 = ROL(XOR(I##5, d0), 36);                                 \
    b2 = ROL(XOR(I##11, d1), 10);                                \
    b3 = ROL(XOR(I##17, d2), 15);                                \
    b4 = ROL(XOR(I##23, d3), 56);                                \
    O##15 = XOR(b0, ANDN(b1, b2));                               \
    O##16 = XOR(b1, ANDN(b2, b3));                               \
    O##17 = XOR(b2, ANDN(b3, b4));                               \
    O##18 = XOR(b3, ANDN(b4, b0));                               \
    O##19 = XOR(b4, ANDN(b0, b1));                               \
    b0 = ROL(XOR(I##2, d2), 62);                                 \
    b1 = ROL(XOR(I##8, d3), 55);                                 \
    b2 = ROL(XOR(I##14, d4), 39);                                \
    b3 = ROL(XOR(I##15, d0), 41);                                \
    b4 = ROL(XOR(I##21, d1), 2);                                 \
    O##20 = XOR(b0, ANDN(b1, b2));                               \
    O##21 = XOR(b1, ANDN(b2, b3));                               \
    O##22 = XOR(b2, ANDN(b3, b4));                               \
    O##23 = XOR(b3, ANDN(b4, b0));                               \
    O##24 = XOR(b4, ANDN(b0, b1));                               \
  } while (0)

#define KECCAK_EACH_LANE(F)                                                           \
  F(0) F(1) F(2) F(3) F(4) F(5) F(6) F(7) F(8) F(9) F(10) F(11) F(12) F(13) F(14) F(15) \
  F(16) F(17) F(18) F(19) F(20) F(21) F(22) F(23) F(24)

/* ROL amounts are always in [1, 63]. */
static inline uint64_t rol64(uint64_t x, int r)
{
  return (x << r) | (x >> (64 - r));
}

#define XOR64(p, q) ((p) ^ (q))
#define ANDN64(p, q) (~(p) & (q))

static void keccak_f1600_x1(uint64_t *st)
{
#define LOAD(i) uint64_t a##i = st[i], e##i;
  KECCAK_EACH_LANE(LOAD)
#undef LOAD
  for (int round = 0; round < 24; round += 2) {
    KECCAK_ROUND(uint64_t, a, e, keccak_rc[round], XOR64, ANDN64, rol64);
    KECCAK_ROUND(uint64_t, e, a, keccak_rc[round + 1], XOR64, ANDN64, rol64);
  }
#define STORE(i) st[i] = a##i;
  KECCAK_EACH_LANE(STORE)
#undef STORE
}

CAMLprim value caml_nocap_f1600_off(value vst, value voff)
{
  keccak_f1600_x1(BA_DATA(vst) + Int_val(voff));
  return Val_unit;
}

/* byte-order-independent little-endian lane load/store (compilers lower
   these to single moves on LE hosts) */
static inline uint64_t load64le(const unsigned char *p)
{
  return (uint64_t)p[0] | ((uint64_t)p[1] << 8) | ((uint64_t)p[2] << 16) |
         ((uint64_t)p[3] << 24) | ((uint64_t)p[4] << 32) | ((uint64_t)p[5] << 40) |
         ((uint64_t)p[6] << 48) | ((uint64_t)p[7] << 56);
}

static inline void store64le(unsigned char *p, uint64_t x)
{
  for (int i = 0; i < 8; i++) p[i] = (unsigned char)(x >> (8 * i));
}

#define RATE_BYTES 136
#define RATE_LANES 17
#define SHA3_PAD 0x06ULL
#define TRAILING_PAD (0x80ULL << 56)

static void squeeze32(const uint64_t *st, unsigned char *out)
{
  for (int l = 0; l < 4; l++) store64le(out + 8 * l, st[l]);
}

static void sha3_256_c(const unsigned char *msg, size_t len, unsigned char *out)
{
  uint64_t st[25] = { 0 };
  size_t off = 0;
  while (len - off >= RATE_BYTES) {
    for (int l = 0; l < RATE_LANES; l++) st[l] ^= load64le(msg + off + 8 * l);
    keccak_f1600_x1(st);
    off += RATE_BYTES;
  }
  size_t rem = len - off;
  size_t full = rem / 8;
  for (size_t l = 0; l < full; l++) st[l] ^= load64le(msg + off + 8 * l);
  uint64_t tail = 0;
  for (size_t i = 8 * full; i < rem; i++)
    tail |= (uint64_t)msg[off + i] << (8 * (i - 8 * full));
  st[full] ^= tail | (SHA3_PAD << (8 * (rem & 7)));
  st[16] ^= TRAILING_PAD;
  keccak_f1600_x1(st);
  squeeze32(st, out);
}

/* SHA3-256 of the first [len] bytes of [msg] into the first 32 bytes of
   [out]. The digest is written after the last read, so [out] may be
   [msg]: the transcript hashes its state-prefixed message in place. */
CAMLprim value caml_nocap_sha3(value vmsg, value vlen, value vout)
{
  sha3_256_c(Bytes_val(vmsg), (size_t)Long_val(vlen), Bytes_val(vout));
  return Val_unit;
}

/* --- flat Merkle kernels ---------------------------------------------------
   A digest is four little-endian 64-bit lanes, so one Merkle level is one
   flat lane buffer with node i at lanes [4i, 4i + 4). hash_nodes
   compresses node pairs (lanes [8i, 8i + 8) of the level below, absorbed
   as one 64-byte message: pad at lane 8, closing bit in lane 16) into
   node i of the next level; hash_cols hashes column j of a row-major
   matrix into leaf j. Both cover an index range [lo, hi), so the OCaml
   side splits one level over the pool. A range runs eight nodes or
   columns per keccak_f1600_x8 call with AVX-512F, then four per
   keccak_f1600_x4 call with AVX2, and finishes on the scalar bodies
   below. */

static void hash_node_c(const uint64_t *pair, uint64_t *out)
{
  uint64_t st[25] = { 0 };
  for (int l = 0; l < 8; l++) st[l] = pair[l];
  st[8] = SHA3_PAD;
  st[16] = TRAILING_PAD;
  keccak_f1600_x1(st);
  for (int l = 0; l < 4; l++) out[l] = st[l];
}

/* Absorb [count] already-packed 64-bit lanes fetched by [get(i)], pad and
   run the final permutation; the digest is lanes 0..3 of [st]. The scalar
   body of hash_cols. */
#define SPONGE_LANES(st, count, GET)                                                     \
  do {                                                                                   \
    intnat off_ = 0;                                                                     \
    while ((count) - off_ >= RATE_LANES) {                                               \
      for (int k_ = 0; k_ < RATE_LANES; k_++) st[k_] ^= GET(off_ + k_);                  \
      keccak_f1600_x1(st);                                                               \
      off_ += RATE_LANES;                                                                \
    }                                                                                    \
    intnat m_ = (count)-off_;                                                            \
    for (intnat k_ = 0; k_ < m_; k_++) st[k_] ^= GET(off_ + k_);                         \
    st[m_] ^= SHA3_PAD;                                                                  \
    st[16] ^= TRAILING_PAD;                                                              \
    keccak_f1600_x1(st);                                                                 \
  } while (0)

/* Col_hash.absorb: per-column incremental sponges living 25 lanes apart in
   one flat bank, each absorbing rows in order and permuting on every 17th
   absorbed lane. [flat] holds rows [r_lo, r_hi) from its row 0; the lane
   is the absolute row's, so a row block may start anywhere. */
CAMLprim value caml_nocap_col_absorb(value vstates, value vflat, value vrs, value vrlo,
                                     value vrhi, value vclo, value vchi)
{
  uint64_t *states = BA_DATA(vstates);
  const uint64_t *flat = BA_DATA(vflat);
  intnat row_stride = Int_val(vrs);
  intnat r_lo = Int_val(vrlo), r_hi = Int_val(vrhi);
  intnat c_lo = Int_val(vclo), c_hi = Int_val(vchi);
  for (intnat j = c_lo; j < c_hi; j++) {
    uint64_t *st = states + 25 * j;
    for (intnat r = r_lo; r < r_hi; r++) {
      int lane = (int)(r % RATE_LANES);
      st[lane] ^= flat[(r - r_lo) * row_stride + j];
      if (lane == RATE_LANES - 1) keccak_f1600_x1(st);
    }
  }
  return Val_unit;
}

static void hash_col_c(const uint64_t *col, intnat stride, intnat rows, uint64_t *out)
{
  uint64_t st[25] = { 0 };
#define GET_COL(i) (col[(i)*stride])
  SPONGE_LANES(st, rows, GET_COL);
#undef GET_COL
  for (int l = 0; l < 4; l++) out[l] = st[l];
}

/* sha3_blocks hashes independent messages that each fit one rate block:
   block i is lanes [17i, 17i + 17) of src with the SHA3 padding already
   in place, its digest lanes [4i, 4i + 4) of dst. The Fiat-Shamir
   transcript stages a vector's squeezes this way. Tiers as in
   hash_nodes. */
static void sha3_block_c(const uint64_t *blk, uint64_t *out)
{
  uint64_t st[25] = { 0 };
  for (int l = 0; l < RATE_LANES; l++) st[l] = blk[l];
  keccak_f1600_x1(st);
  for (int l = 0; l < 4; l++) out[l] = st[l];
}

/* --- 4-lane AVX2 Keccak sponge -------------------------------------------
   One 64-bit lane position across four independent states per ymm register:
   the flat Merkle kernels (node pairs and matrix columns) drive four
   sponges for the price of ~1.5 scalar permutations. */

#if defined(NOCAP_X86_64)

__attribute__((target("avx2"))) static inline __m256i rol64x4(__m256i x, int r)
{
  return _mm256_or_si256(_mm256_slli_epi64(x, r), _mm256_srli_epi64(x, 64 - r));
}

__attribute__((target("avx2"))) static void keccak_f1600_x4(__m256i *st)
{
#define LOAD(i) __m256i a##i = st[i], e##i;
  KECCAK_EACH_LANE(LOAD)
#undef LOAD
  for (int round = 0; round < 24; round += 2) {
    KECCAK_ROUND(__m256i, a, e, _mm256_set1_epi64x((long long)keccak_rc[round]),
                 _mm256_xor_si256, _mm256_andnot_si256, rol64x4);
    KECCAK_ROUND(__m256i, e, a, _mm256_set1_epi64x((long long)keccak_rc[round + 1]),
                 _mm256_xor_si256, _mm256_andnot_si256, rol64x4);
  }
#define STORE(i) st[i] = a##i;
  KECCAK_EACH_LANE(STORE)
#undef STORE
}

/* Row k of the 4x4 lane block becomes column k: turns "four lanes of one
   node" into "one lane of four nodes" and back. */
__attribute__((target("avx2"))) static inline void transpose4x4(__m256i r[4])
{
  __m256i t0 = _mm256_unpacklo_epi64(r[0], r[1]);
  __m256i t1 = _mm256_unpackhi_epi64(r[0], r[1]);
  __m256i t2 = _mm256_unpacklo_epi64(r[2], r[3]);
  __m256i t3 = _mm256_unpackhi_epi64(r[2], r[3]);
  r[0] = _mm256_permute2x128_si256(t0, t2, 0x20);
  r[1] = _mm256_permute2x128_si256(t1, t3, 0x20);
  r[2] = _mm256_permute2x128_si256(t0, t2, 0x31);
  r[3] = _mm256_permute2x128_si256(t1, t3, 0x31);
}

/* Squeeze lanes 0..3 of four sponges into four consecutive digests. */
__attribute__((target("avx2"))) static inline void store_digests_x4(const __m256i *st,
                                                                     uint64_t *out)
{
  __m256i d[4] = { st[0], st[1], st[2], st[3] };
  transpose4x4(d);
  for (int k = 0; k < 4; k++) _mm256_storeu_si256((__m256i *)(out + 4 * k), d[k]);
}

/* Nodes i..i+3: their four child pairs are 32 consecutive lanes at
   [pairs], their digests 16 consecutive lanes at [out]. */
__attribute__((target("avx2"))) static void hash_nodes_x4(const uint64_t *pairs, uint64_t *out)
{
  __m256i st[25];
  __m256i lo[4], hi[4];
  for (int k = 0; k < 4; k++) {
    lo[k] = _mm256_loadu_si256((const __m256i *)(pairs + 8 * k));
    hi[k] = _mm256_loadu_si256((const __m256i *)(pairs + 8 * k + 4));
  }
  transpose4x4(lo);
  transpose4x4(hi);
  for (int l = 0; l < 4; l++) {
    st[l] = lo[l];
    st[4 + l] = hi[l];
  }
  for (int l = 8; l < 25; l++) st[l] = _mm256_setzero_si256();
  st[8] = _mm256_set1_epi64x((long long)SHA3_PAD);
  st[16] = _mm256_set1_epi64x((long long)TRAILING_PAD);
  keccak_f1600_x4(st);
  store_digests_x4(st, out);
}

/* Columns j..j+3 of a row-major matrix: one unaligned load per row picks
   up the four columns' elements side by side, already lane-sliced. */
__attribute__((target("avx2"))) static void hash_cols_x4(const uint64_t *col0, intnat stride,
                                                         intnat rows, uint64_t *out)
{
  __m256i st[25];
  for (int l = 0; l < 25; l++) st[l] = _mm256_setzero_si256();
  int lane = 0;
  for (intnat r = 0; r < rows; r++) {
    st[lane] = _mm256_xor_si256(st[lane], _mm256_loadu_si256((const __m256i *)(col0 + r * stride)));
    if (++lane == RATE_LANES) {
      keccak_f1600_x4(st);
      lane = 0;
    }
  }
  st[lane] = _mm256_xor_si256(st[lane], _mm256_set1_epi64x((long long)SHA3_PAD));
  st[16] = _mm256_xor_si256(st[16], _mm256_set1_epi64x((long long)TRAILING_PAD));
  keccak_f1600_x4(st);
  store_digests_x4(st, out);
}

/* Blocks i..i+3: lane l of the four sponges is one gather at stride 17. */
__attribute__((target("avx2"))) static void sha3_blocks_x4(const uint64_t *blks, uint64_t *out)
{
  __m256i st[25];
  const __m256i idx = _mm256_setr_epi64x(0, RATE_LANES, 2 * RATE_LANES, 3 * RATE_LANES);
  for (int l = 0; l < RATE_LANES; l++)
    st[l] = _mm256_i64gather_epi64((const long long *)(blks + l), idx, 8);
  for (int l = RATE_LANES; l < 25; l++) st[l] = _mm256_setzero_si256();
  keccak_f1600_x4(st);
  store_digests_x4(st, out);
}

/* --- 8-lane AVX-512F Keccak sponge ----------------------------------------
   The same KECCAK_ROUND over __m512i: eight sponges per zmm register, ROL
   as vprolq. Only the flat Merkle kernels drive it; their ranges run
   groups of eight here, then groups of four on the AVX2 body, then the
   scalar body. */

#define ROL64X8(x, r) _mm512_rol_epi64((x), (r))

__attribute__((target("avx512f"))) static void keccak_f1600_x8(__m512i *st)
{
#define LOAD(i) __m512i a##i = st[i], e##i;
  KECCAK_EACH_LANE(LOAD)
#undef LOAD
  for (int round = 0; round < 24; round += 2) {
    KECCAK_ROUND(__m512i, a, e, _mm512_set1_epi64((long long)keccak_rc[round]),
                 _mm512_xor_si512, _mm512_andnot_si512, ROL64X8);
    KECCAK_ROUND(__m512i, e, a, _mm512_set1_epi64((long long)keccak_rc[round + 1]),
                 _mm512_xor_si512, _mm512_andnot_si512, ROL64X8);
  }
#define STORE(i) st[i] = a##i;
  KECCAK_EACH_LANE(STORE)
#undef STORE
}

/* Squeeze lanes 0..3 of eight sponges into eight consecutive digests:
   pair up lanes 0/1 and 2/3 of each sponge, then gather the 128-bit
   halves so register k holds digests 2k and 2k + 1. */
__attribute__((target("avx512f"))) static inline void store_digests_x8(const __m512i *st,
                                                                       uint64_t *out)
{
  __m512i t0 = _mm512_unpacklo_epi64(st[0], st[1]);
  __m512i t1 = _mm512_unpackhi_epi64(st[0], st[1]);
  __m512i t2 = _mm512_unpacklo_epi64(st[2], st[3]);
  __m512i t3 = _mm512_unpackhi_epi64(st[2], st[3]);
  __m512i lo0 = _mm512_shuffle_i64x2(t0, t2, 0x44), lo1 = _mm512_shuffle_i64x2(t1, t3, 0x44);
  __m512i hi0 = _mm512_shuffle_i64x2(t0, t2, 0xEE), hi1 = _mm512_shuffle_i64x2(t1, t3, 0xEE);
  _mm512_storeu_si512((void *)(out + 0), _mm512_shuffle_i64x2(lo0, lo1, 0x88));
  _mm512_storeu_si512((void *)(out + 8), _mm512_shuffle_i64x2(lo0, lo1, 0xDD));
  _mm512_storeu_si512((void *)(out + 16), _mm512_shuffle_i64x2(hi0, hi1, 0x88));
  _mm512_storeu_si512((void *)(out + 24), _mm512_shuffle_i64x2(hi0, hi1, 0xDD));
}

/* Nodes i..i+7: their eight child pairs are 64 consecutive lanes at
   [pairs] (row = node); lane l of the eight sponges is one strided gather
   down that 8x8 block. A three-stage unpack/shuffle transpose measured the
   same (~75 ns per node either way), so the shorter form stays. Their
   digests are 32 consecutive lanes at [out]. */
__attribute__((target("avx512f"))) static void hash_nodes_x8(const uint64_t *pairs, uint64_t *out)
{
  __m512i st[25];
  const __m512i rows = _mm512_setr_epi64(0, 8, 16, 24, 32, 40, 48, 56);
  for (int l = 0; l < 8; l++) st[l] = _mm512_i64gather_epi64(rows, (const void *)(pairs + l), 8);
  for (int l = 8; l < 25; l++) st[l] = _mm512_setzero_si512();
  st[8] = _mm512_set1_epi64((long long)SHA3_PAD);
  st[16] = _mm512_set1_epi64((long long)TRAILING_PAD);
  keccak_f1600_x8(st);
  store_digests_x8(st, out);
}

/* Columns j..j+7: one unaligned 512-bit load per row. */
__attribute__((target("avx512f"))) static void hash_cols_x8(const uint64_t *col0, intnat stride,
                                                           intnat rows, uint64_t *out)
{
  __m512i st[25];
  for (int l = 0; l < 25; l++) st[l] = _mm512_setzero_si512();
  int lane = 0;
  for (intnat r = 0; r < rows; r++) {
    st[lane] = _mm512_xor_si512(st[lane], _mm512_loadu_si512((const void *)(col0 + r * stride)));
    if (++lane == RATE_LANES) {
      keccak_f1600_x8(st);
      lane = 0;
    }
  }
  st[lane] = _mm512_xor_si512(st[lane], _mm512_set1_epi64((long long)SHA3_PAD));
  st[16] = _mm512_xor_si512(st[16], _mm512_set1_epi64((long long)TRAILING_PAD));
  keccak_f1600_x8(st);
  store_digests_x8(st, out);
}

/* Blocks i..i+7: as sha3_blocks_x4, eight at a time. */
__attribute__((target("avx512f"))) static void sha3_blocks_x8(const uint64_t *blks, uint64_t *out)
{
  __m512i st[25];
  const __m512i idx = _mm512_setr_epi64(0, RATE_LANES, 2 * RATE_LANES, 3 * RATE_LANES,
                                        4 * RATE_LANES, 5 * RATE_LANES, 6 * RATE_LANES,
                                        7 * RATE_LANES);
  for (int l = 0; l < RATE_LANES; l++)
    st[l] = _mm512_i64gather_epi64(idx, (const void *)(blks + l), 8);
  for (int l = RATE_LANES; l < 25; l++) st[l] = _mm512_setzero_si512();
  keccak_f1600_x8(st);
  store_digests_x8(st, out);
}

#endif /* NOCAP_X86_64 */

CAMLprim value caml_nocap_hash_nodes(value vsrc, value vdst, value vlo, value vhi)
{
  const uint64_t *src = BA_DATA(vsrc);
  uint64_t *dst = BA_DATA(vdst);
  intnat i = Int_val(vlo), hi = Int_val(vhi);
#if defined(NOCAP_X86_64)
  if (g_simd >= 2 && have_avx512f())
    for (; i + 8 <= hi; i += 8) hash_nodes_x8(src + 8 * i, dst + 4 * i);
  if (g_simd && have_avx2())
    for (; i + 4 <= hi; i += 4) hash_nodes_x4(src + 8 * i, dst + 4 * i);
#endif
  for (; i < hi; i++) hash_node_c(src + 8 * i, dst + 4 * i);
  return Val_unit;
}

CAMLprim value caml_nocap_hash_cols(value vflat, value vcols, value vrows, value vdst,
                                    value vlo, value vhi)
{
  const uint64_t *flat = BA_DATA(vflat);
  uint64_t *dst = BA_DATA(vdst);
  intnat cols = Int_val(vcols), rows = Int_val(vrows);
  intnat j = Int_val(vlo), hi = Int_val(vhi);
#if defined(NOCAP_X86_64)
  if (g_simd >= 2 && have_avx512f())
    for (; j + 8 <= hi; j += 8) hash_cols_x8(flat + j, cols, rows, dst + 4 * j);
  if (g_simd && have_avx2())
    for (; j + 4 <= hi; j += 4) hash_cols_x4(flat + j, cols, rows, dst + 4 * j);
#endif
  for (; j < hi; j++) hash_col_c(flat + j, cols, rows, dst + 4 * j);
  return Val_unit;
}

CAMLprim value caml_nocap_sha3_blocks(value vsrc, value vdst, value vlo, value vhi)
{
  const uint64_t *src = BA_DATA(vsrc);
  uint64_t *dst = BA_DATA(vdst);
  intnat i = Int_val(vlo), hi = Int_val(vhi);
#if defined(NOCAP_X86_64)
  if (g_simd >= 2 && have_avx512f())
    for (; i + 8 <= hi; i += 8) sha3_blocks_x8(src + RATE_LANES * i, dst + 4 * i);
  if (g_simd && have_avx2())
    for (; i + 4 <= hi; i += 4) sha3_blocks_x4(src + RATE_LANES * i, dst + 4 * i);
#endif
  for (; i < hi; i++) sha3_block_c(src + RATE_LANES * i, dst + 4 * i);
  return Val_unit;
}

CAMLprim value caml_nocap_hash_cols_byte(value *argv, int argn)
{
  (void)argn;
  return caml_nocap_hash_cols(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* Self-check hook for gl_pow (used by inverse-NTT plan building from C if
   ever needed) — keeps the symbol alive and testable. */
CAMLprim value caml_nocap_gl_pow(value va, value ve)
{
  return caml_copy_int64((int64_t)gl_pow((uint64_t)Int64_val(va), (uint64_t)Int64_val(ve)));
}

/* --- spill-file block I/O -------------------------------------------------
   Spill.read/write move an Fv block straight between its storage and the
   file at byte offset [off], with the runtime lock released around each
   syscall (the block is a root and bigarray storage never moves). The file
   holds the int64 images as they lie, which Spill documents as
   little-endian: a big-endian host would need a byte swap here. */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#error "spill files hold little-endian int64 images: byte-swap in spill_io first"
#endif

CAMLprim value caml_nocap_spill_io(value vfd, value vbuf, value voff, value vwrite)
{
  CAMLparam4(vfd, vbuf, voff, vwrite);
  int fd = Int_val(vfd), is_write = Bool_val(vwrite);
  char *p = (char *)Caml_ba_data_val(vbuf);
  size_t left = (size_t)BA_DIM(vbuf) * 8;
  off_t off = (off_t)Long_val(voff);
  while (left > 0) {
    caml_enter_blocking_section();
    ssize_t n = is_write ? pwrite(fd, p, left, off) : pread(fd, p, left, off);
    int err = errno;
    caml_leave_blocking_section();
    if (n < 0 && err == EINTR) {
      caml_process_pending_actions();
      continue;
    }
    if (n < 0) caml_unix_error(err, is_write ? "pwrite" : "pread", Nothing);
    if (n == 0) caml_failwith(is_write ? "Spill: short write" : "Spill: short read (truncated spill file)");
    p += n;
    left -= (size_t)n;
    off += n;
  }
  CAMLreturn(Val_unit);
}

CAMLprim value caml_nocap_col_absorb_byte(value *argv, int argn)
{
  (void)argn;
  return caml_nocap_col_absorb(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]);
}
