#include "ecc/rs.hh"

#include <algorithm>
#include <stdexcept>

namespace dnastore {

namespace {

/** Polynomial product, coefficients low-order first. */
std::vector<uint32_t>
polyMul(const GaloisField &gf, const std::vector<uint32_t> &a,
        const std::vector<uint32_t> &b)
{
    std::vector<uint32_t> out(a.size() + b.size() - 1, 0);
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] == 0)
            continue;
        for (size_t j = 0; j < b.size(); ++j)
            out[i + j] ^= gf.mul(a[i], b[j]);
    }
    return out;
}

/** Polynomial product into a reusable output buffer. */
void
polyMulInto(const GaloisField &gf, const std::vector<uint32_t> &a,
            const std::vector<uint32_t> &b, std::vector<uint32_t> &out)
{
    out.assign(a.size() + b.size() - 1, 0);
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] == 0)
            continue;
        for (size_t j = 0; j < b.size(); ++j)
            out[i + j] ^= gf.mul(a[i], b[j]);
    }
}

/**
 * Evaluate a polynomial (low-first coefficients) at nonzero x with a
 * fused Horner loop: the multiplier's log is hoisted so each step is
 * one log and one antilog lookup.
 */
template <typename Coeff>
uint32_t
polyEvalAt(const GaloisField &gf, const Coeff *p, size_t len,
           uint32_t x)
{
    const uint16_t *lg = gf.logData();
    const uint16_t *ex = gf.expData();
    const uint32_t lx = lg[x];
    uint32_t acc = 0;
    for (size_t i = len; i-- > 0;)
        acc = (acc ? ex[lg[acc] + lx] : 0) ^ p[i];
    return acc;
}

/** The scratch behind the overloads that take none. */
RsScratch &
threadScratch()
{
    static thread_local RsScratch scratch;
    return scratch;
}

/**
 * One LFSR step's table rows for every nibble of the feedback,
 * XORed into the shifted remainder. B, the nibble count, is a
 * template parameter so the row loop is unrolled and the XOR loop
 * over @p e coefficients vectorises.
 */
template <unsigned B>
void
xorRows(uint16_t *__restrict dst, const uint16_t *__restrict rows,
        size_t e, uint32_t f)
{
    // Rows of nibbles the code does not have alias r0 and are unread.
    const uint16_t *__restrict r0 = rows + size_t(f & 15u) * e;
    const uint16_t *__restrict r1 =
        B > 1 ? rows + (16 + size_t((f >> 4) & 15u)) * e : r0;
    const uint16_t *__restrict r2 =
        B > 2 ? rows + (32 + size_t((f >> 8) & 15u)) * e : r0;
    const uint16_t *__restrict r3 =
        B > 3 ? rows + (48 + size_t((f >> 12) & 15u)) * e : r0;
    for (size_t j = 0; j < e; ++j) {
        uint16_t x = r0[j];
        if constexpr (B > 1)
            x ^= r1[j];
        if constexpr (B > 2)
            x ^= r2[j];
        if constexpr (B > 3)
            x ^= r3[j];
        dst[j] ^= x;
    }
}

/**
 * Divide the k symbols at @p data (high order first) times x^E by
 * g(x). The remainder window starts at buf + k and moves down one
 * slot per step, so the shift is a pointer decrement; the slot it
 * moves onto was zeroed up front and never written since. After k
 * steps the remainder is buf[0, e).
 */
template <unsigned B>
void
lfsrRemainder(const uint16_t *rows, size_t e, const uint32_t *data,
              size_t k, uint16_t *buf)
{
    uint16_t *rem = buf + k;
    for (size_t i = k; i-- > 0;) {
        const uint32_t f = data[i] ^ rem[e - 1];
        --rem;
        if (f != 0)
            xorRows<B>(rem, rows, e, f);
    }
}

} // namespace

ReedSolomon::ReedSolomon(const GaloisField &gf, size_t n_par)
    : gf_(gf), n_(gf.order()), nPar_(n_par),
      nibbles_((gf.degree() + 3) / 4)
{
    if (n_par == 0 || n_par >= n_)
        throw std::invalid_argument("ReedSolomon: bad parity count");

    // Generator g(x) = prod_{i=1}^{E} (x - alpha^i); roots at
    // alpha^1 .. alpha^E so the Forney formula needs no position
    // exponent correction (fcr = 1).
    std::vector<uint32_t> generator = { 1 };
    for (size_t i = 1; i <= nPar_; ++i)
        generator = polyMul(gf_, generator, { gf_.alphaPow(i), 1 });

    // Nibble tables: row (b, v) is g_j * (v << 4b) for j < E. Values
    // past the field's top bit stay zero; symbols never reach them.
    rows_.assign(size_t(nibbles_) * 16 * nPar_, 0);
    for (unsigned b = 0; b < nibbles_; ++b) {
        for (uint32_t v = 1; v < 16; ++v) {
            const uint32_t x = v << (4 * b);
            if (x >= gf_.size())
                break;
            uint16_t *row = rows_.data() + (size_t(b) * 16 + v) * nPar_;
            for (size_t j = 0; j < nPar_; ++j)
                row[j] = uint16_t(gf_.mul(generator[j], x));
        }
    }
}

void
ReedSolomon::remainderInto(const uint32_t *data,
                           std::vector<uint16_t> &lfsr) const
{
    const size_t kk = k();
    lfsr.assign(kk + nPar_, 0);
    switch (nibbles_) {
    case 1:
        lfsrRemainder<1>(rows_.data(), nPar_, data, kk, lfsr.data());
        break;
    case 2:
        lfsrRemainder<2>(rows_.data(), nPar_, data, kk, lfsr.data());
        break;
    case 3:
        lfsrRemainder<3>(rows_.data(), nPar_, data, kk, lfsr.data());
        break;
    default:
        lfsrRemainder<4>(rows_.data(), nPar_, data, kk, lfsr.data());
        break;
    }
}

std::vector<uint32_t>
ReedSolomon::encode(const std::vector<uint32_t> &data) const
{
    if (data.size() != k())
        throw std::invalid_argument("ReedSolomon: data size != k");

    // Systematic encoding: the parity is the remainder of
    // data * x^E divided by g(x).
    std::vector<uint16_t> &rem = threadScratch().lfsr;
    remainderInto(data.data(), rem);
    std::vector<uint32_t> codeword(n_);
    std::copy(data.begin(), data.end(), codeword.begin());
    // Parity symbols: codeword positions k..n-1.
    std::copy(rem.begin(), rem.begin() + long(nPar_),
              codeword.begin() + long(k()));
    return codeword;
}

void
ReedSolomon::syndromesInto(const uint32_t *cw, RsScratch &s) const
{
    // The codeword polynomial maps data position i to degree E + i
    // and parity position k + j to degree j. Its remainder mod g(x)
    // is the data part's remainder plus the received parity, and
    // S_j = r(alpha^j) = R(alpha^j) because alpha^j is a root of g.
    const size_t kk = k();
    remainderInto(cw, s.lfsr);
    uint16_t *rem = s.lfsr.data();
    uint32_t any = 0;
    for (size_t j = 0; j < nPar_; ++j) {
        rem[j] = uint16_t(rem[j] ^ cw[kk + j]);
        any |= rem[j];
    }
    if (any == 0) {
        s.syn.assign(nPar_, 0);
        return;
    }

    // Horner high-to-low over R's E coefficients, the evaluation
    // points' logs hoisted. Each chain is a dependent load-add-load
    // sequence, so a single chain is latency-bound; syndromes are
    // independent, so kLanes chains run through one pass over R.
    const uint16_t *lg = gf_.logData();
    const uint16_t *ex = gf_.expData();
    s.syn.resize(nPar_);

    constexpr size_t kLanes = 8;
    uint32_t acc[kLanes];
    size_t j = 0;
    for (; j + kLanes <= nPar_; j += kLanes) {
        for (size_t l = 0; l < kLanes; ++l)
            acc[l] = 0;
        // log of alpha^(j+1+l) is j+1+l (< n since j+l+1 <= E < n).
        const uint32_t la = uint32_t(j + 1);
        for (size_t i = nPar_; i-- > 0;) {
            const uint32_t c = rem[i];
            for (size_t l = 0; l < kLanes; ++l) {
                uint32_t a = acc[l];
                acc[l] = (a ? ex[lg[a] + la + uint32_t(l)] : 0) ^ c;
            }
        }
        for (size_t l = 0; l < kLanes; ++l)
            s.syn[j + l] = acc[l];
    }
    // Scalar tail for the last nPar_ % kLanes syndromes.
    for (; j < nPar_; ++j)
        s.syn[j] = polyEvalAt(gf_, rem, nPar_, gf_.alphaPow(j + 1));
}

RsDecodeResult
ReedSolomon::decode(std::vector<uint32_t> &codeword,
                    const std::vector<size_t> &erasures) const
{
    return decode(codeword, erasures, threadScratch());
}

RsDecodeResult
ReedSolomon::decode(std::vector<uint32_t> &codeword,
                    const std::vector<size_t> &erasures,
                    RsScratch &s) const
{
    RsDecodeResult result;
    if (codeword.size() != n_)
        return result;
    if (erasures.size() > nPar_)
        return result;
    for (size_t pos : erasures) {
        if (pos >= n_)
            return result;
    }

    const uint16_t *lg = gf_.logData();
    const uint16_t *ex = gf_.expData();

    // Map external position (data index i, parity index) to the
    // exponent of its coefficient in the codeword polynomial:
    // data position i  -> degree E + i, parity position k+j -> degree j.
    auto degree_of = [this](size_t pos) {
        return pos < k() ? nPar_ + pos : pos - k();
    };

    // Fast path: with no erasures the syndromes can be computed on the
    // received buffer directly, so a clean codeword — the dominant
    // case at realistic coverage — returns without copying anything.
    bool all_zero;
    if (erasures.empty()) {
        syndromesInto(codeword.data(), s);
        all_zero = std::all_of(s.syn.begin(), s.syn.end(),
                               [](uint32_t v) { return v == 0; });
        if (all_zero) {
            result.success = true;
            return result;
        }
        s.work = codeword;
    } else {
        // Zero out erased symbols so their (unknown) values do not
        // contaminate the syndromes.
        s.work = codeword;
        for (size_t pos : erasures)
            s.work[pos] = 0;
        syndromesInto(s.work.data(), s);
        all_zero = std::all_of(s.syn.begin(), s.syn.end(),
                               [](uint32_t v) { return v == 0; });
        if (all_zero) {
            // Erased values happened to be zero already; accept.
            codeword = s.work;
            result.success = true;
            result.erasuresCorrected = erasures.size();
            return result;
        }
    }

    // Erasure locator Gamma(x) = prod (1 - X_k x), built in place.
    s.gamma.assign(1, 1);
    for (size_t pos : erasures) {
        uint32_t xk = gf_.alphaPow(degree_of(pos));
        s.gamma.push_back(0);
        for (size_t j = s.gamma.size() - 1; j >= 1; --j)
            s.gamma[j] ^= gf_.mul(xk, s.gamma[j - 1]);
    }

    // Modified syndromes T(x) = S(x) * Gamma(x) mod x^E.
    s.modified.assign(nPar_, 0);
    for (size_t i = 0; i < nPar_; ++i) {
        uint32_t acc = 0;
        for (size_t j = 0; j <= i && j < s.gamma.size(); ++j)
            acc ^= gf_.mul(s.gamma[j], s.syn[i - j]);
        s.modified[i] = acc;
    }

    // Berlekamp-Massey on the modified syndromes for the error locator.
    const size_t rho = erasures.size();
    s.lambda.assign(1, 1);
    s.prev.assign(1, 1);
    size_t l = 0;
    for (size_t r = 0; r + rho < nPar_; ++r) {
        uint32_t delta = s.modified[r + rho];
        for (size_t i = 1; i < s.lambda.size() && i <= r + rho; ++i)
            delta ^= gf_.mul(s.lambda[i], s.modified[r + rho - i]);
        s.prev.insert(s.prev.begin(), 0); // prev *= x
        if (delta != 0) {
            if (2 * l <= r) {
                s.tmp = s.lambda;
                // lambda -= delta * prev ; prev = old lambda / delta
                if (s.prev.size() > s.lambda.size())
                    s.lambda.resize(s.prev.size(), 0);
                for (size_t i = 0; i < s.prev.size(); ++i)
                    s.lambda[i] ^= gf_.mul(delta, s.prev[i]);
                std::swap(s.prev, s.tmp);
                uint32_t inv = gf_.inverse(delta);
                for (auto &c : s.prev)
                    c = gf_.mul(c, inv);
                l = r + 1 - l;
            } else {
                if (s.prev.size() > s.lambda.size())
                    s.lambda.resize(s.prev.size(), 0);
                for (size_t i = 0; i < s.prev.size(); ++i)
                    s.lambda[i] ^= gf_.mul(delta, s.prev[i]);
            }
        }
    }
    while (!s.lambda.empty() && s.lambda.back() == 0)
        s.lambda.pop_back();
    if (s.lambda.empty())
        return result;
    const size_t n_errors = s.lambda.size() - 1;
    if (2 * n_errors + rho > nPar_)
        return result;

    // Combined locator Psi = Lambda * Gamma; roots give all bad
    // positions (errors + erasures).
    if (n_errors > 0)
        polyMulInto(gf_, s.lambda, s.gamma, s.psi);
    const std::vector<uint32_t> &psi =
        n_errors > 0 ? s.psi : s.gamma;
    const size_t psi_deg = psi.size() - 1;

    s.badPositions.clear();
    s.badX.clear();
    if (n_errors == 0) {
        // Erasure-only fast path: Psi = Gamma, whose roots are exactly
        // the distinct erasure positions, so the Chien search is
        // redundant. Duplicated erasure positions give Gamma a
        // repeated root and fewer distinct roots than its degree —
        // the classical search would fail below; replicate that.
        s.badPositions.assign(erasures.begin(), erasures.end());
        std::sort(s.badPositions.begin(), s.badPositions.end());
        if (std::adjacent_find(s.badPositions.begin(),
                               s.badPositions.end()) !=
            s.badPositions.end()) {
            return result;
        }
        for (size_t pos : s.badPositions)
            s.badX.push_back(gf_.alphaPow(degree_of(pos)));
    } else {
        // Chien search over coefficient degrees: degree d is bad iff
        // Psi(alpha^{-d}) == 0. Evaluated incrementally — term i is
        // multiplied by alpha^{-i} per step — and cut short once all
        // deg(Psi) roots are found.
        s.chien.assign(psi.begin(), psi.end());
        for (size_t d = 0; d < n_; ++d) {
            uint32_t eval = 0;
            for (size_t i = 0; i <= psi_deg; ++i)
                eval ^= s.chien[i];
            if (eval == 0) {
                size_t pos =
                    d < nPar_ ? k() + d : d - nPar_;
                s.badPositions.push_back(pos);
                s.badX.push_back(gf_.alphaPow(d));
                if (s.badPositions.size() == psi_deg)
                    break;
            }
            for (size_t i = 1; i <= psi_deg; ++i) {
                uint32_t t = s.chien[i];
                if (t)
                    s.chien[i] = ex[lg[t] + n_ - uint32_t(i)];
            }
        }
    }
    if (s.badPositions.size() != psi_deg)
        return result; // locator degree mismatch: decoding failure

    // Error evaluator Omega(x) = S(x) * Psi(x) mod x^E.
    s.omega.assign(nPar_, 0);
    for (size_t i = 0; i < nPar_; ++i) {
        uint32_t acc = 0;
        for (size_t j = 0; j <= i && j < psi.size(); ++j)
            acc ^= gf_.mul(psi[j], s.syn[i - j]);
        s.omega[i] = acc;
    }
    // Formal derivative over GF(2^m): odd-degree terms survive.
    s.psiDeriv.assign(psi_deg > 0 ? psi_deg : 1, 0);
    for (size_t i = 1; i < psi.size(); ++i)
        s.psiDeriv[i - 1] = (i & 1) ? psi[i] : 0;

    // Forney: e_k = Omega(X_k^{-1}) / Psi'(X_k^{-1})  (fcr = 1).
    s.evals.resize(s.badPositions.size());
    for (size_t idx = 0; idx < s.badPositions.size(); ++idx) {
        uint32_t x_inv = gf_.inverse(s.badX[idx]);
        uint32_t num =
            polyEvalAt(gf_, s.omega.data(), s.omega.size(), x_inv);
        uint32_t den = polyEvalAt(gf_, s.psiDeriv.data(),
                                  s.psiDeriv.size(), x_inv);
        if (den == 0)
            return result;
        uint32_t e = gf_.div(num, den);
        s.evals[idx] = e;
        s.work[s.badPositions[idx]] ^= e;
    }

    // Verify the correction produced a codeword: update the syndromes
    // incrementally with the applied error values — correcting e at
    // codeword degree d changes syndrome j by e * alpha^{(j+1) d} =
    // e * X^(j+1) — instead of recomputing all n symbols.
    for (size_t idx = 0; idx < s.badPositions.size(); ++idx) {
        const uint32_t e = s.evals[idx];
        if (e == 0)
            continue;
        const uint32_t x = s.badX[idx];
        uint32_t p = x;
        for (size_t j = 0; j < nPar_; ++j) {
            s.syn[j] ^= gf_.mul(e, p);
            p = gf_.mul(p, x);
        }
    }
    if (!std::all_of(s.syn.begin(), s.syn.end(),
                     [](uint32_t v) { return v == 0; })) {
        return result;
    }

    codeword = s.work;
    result.success = true;
    result.erasuresCorrected = rho;
    result.errorsCorrected = n_errors;
    return result;
}

bool
ReedSolomon::isCodeword(const std::vector<uint32_t> &codeword) const
{
    if (codeword.size() != n_)
        return false;
    RsScratch &s = threadScratch();
    syndromesInto(codeword.data(), s);
    return std::all_of(s.syn.begin(), s.syn.end(),
                       [](uint32_t v) { return v == 0; });
}

} // namespace dnastore
