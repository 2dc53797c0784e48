/**
 * @file
 * Dense row-major matrix type and the basic operations the rest of the
 * library is built on (GEMM, transpose, norms). No external BLAS —
 * everything in this repo is self-contained per the reproduction rules.
 */

#ifndef TIE_LINALG_MATRIX_HH
#define TIE_LINALG_MATRIX_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "linalg/gemm.hh"
#include "linalg/pack.hh"

namespace tie {

/**
 * Dense row-major matrix.
 *
 * @tparam T element type; the library instantiates float (NN compute)
 *           and double (decomposition internals).
 */
template <typename T>
class Matrix
{
  public:
    Matrix() : rows_(0), cols_(0) {}

    Matrix(size_t rows, size_t cols, T init = T(0))
        : rows_(rows), cols_(cols), data_(rows * cols, init)
    {}

    /** Construct from a flat row-major buffer. */
    Matrix(size_t rows, size_t cols, std::vector<T> data)
        : rows_(rows), cols_(cols), data_(std::move(data))
    {
        TIE_REQUIRE(data_.size() == rows_ * cols_,
                    "flat buffer size ", data_.size(), " != ", rows_, "x",
                    cols_);
    }

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    T &operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
    const T &
    operator()(size_t r, size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** Bounds-checked element access (tests and debug paths). */
    T &
    at(size_t r, size_t c)
    {
        TIE_REQUIRE(r < rows_ && c < cols_, "index (", r, ",", c,
                    ") out of ", rows_, "x", cols_);
        return data_[r * cols_ + c];
    }
    const T &
    at(size_t r, size_t c) const
    {
        TIE_REQUIRE(r < rows_ && c < cols_, "index (", r, ",", c,
                    ") out of ", rows_, "x", cols_);
        return data_[r * cols_ + c];
    }

    T *data() { return data_.data(); }
    const T *data() const { return data_.data(); }
    std::vector<T> &flat() { return data_; }
    const std::vector<T> &flat() const { return data_; }

    void
    fill(T v)
    {
        std::fill(data_.begin(), data_.end(), v);
    }

    /** Fill with uniform values in [lo, hi). */
    void
    setUniform(Rng &rng, double lo = -1.0, double hi = 1.0)
    {
        for (auto &x : data_)
            x = static_cast<T>(rng.uniform(lo, hi));
    }

    /** Fill with normal values (Xavier-style init when scaled). */
    void
    setNormal(Rng &rng, double mean = 0.0, double stddev = 1.0)
    {
        for (auto &x : data_)
            x = static_cast<T>(rng.normal(mean, stddev));
    }

    /** Return the transpose. */
    Matrix<T>
    transposed() const
    {
        Matrix<T> t(cols_, rows_);
        for (size_t r = 0; r < rows_; ++r)
            for (size_t c = 0; c < cols_; ++c)
                t(c, r) = (*this)(r, c);
        return t;
    }

    /** Identity matrix of order @p n. */
    static Matrix<T>
    identity(size_t n)
    {
        Matrix<T> m(n, n);
        for (size_t i = 0; i < n; ++i)
            m(i, i) = T(1);
        return m;
    }

    /** Convert element type. */
    template <typename U>
    Matrix<U>
    cast() const
    {
        Matrix<U> out(rows_, cols_);
        for (size_t i = 0; i < data_.size(); ++i)
            out.flat()[i] = static_cast<U>(data_[i]);
        return out;
    }

    bool
    operator==(const Matrix<T> &o) const
    {
        return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
    }

  private:
    size_t rows_;
    size_t cols_;
    std::vector<T> data_;
};

using MatrixF = Matrix<float>;
using MatrixD = Matrix<double>;

/**
 * c = a * b on the packed microkernel: A is packed per call
 * (pack::packA) and gemm::gemmPackedBlocked runs the exact chain
 * (fast = false), so c is bit-identical to the naive ascending-k
 * i-k-j loop for every ISA and thread count. Every term is executed —
 * no data-dependent zero skipping — so wall-clock and any FLOP
 * accounting derived from shapes (rows * cols * cols) describe the
 * work actually done.
 */
template <typename T>
Matrix<T>
matmul(const Matrix<T> &a, const Matrix<T> &b)
{
    static_assert(std::is_same_v<T, float> ||
                      std::is_same_v<T, double>,
                  "matmul runs the packed float/double kernels");
    TIE_CHECK_ARG(a.cols() == b.rows(), "matmul shape mismatch: ",
                  a.rows(), "x", a.cols(), " * ", b.rows(), "x", b.cols());
    Matrix<T> c(a.rows(), b.cols());
    if (a.size() == 0 || b.size() == 0)
        return c;
    pack::AlignedBuf<T> pa;
    pa.resize(pack::packedAElems(a.rows(), a.cols()));
    pack::packA(a.rows(), a.cols(), a.data(), pa.data());
    gemm::gemmPackedBlocked(a.rows(), b.cols(), a.cols(), pa.data(),
                            b.data(), c.data(), false);
    return c;
}

/** y = a * x for a vector x (stored as std::vector). */
template <typename T>
std::vector<T>
matVec(const Matrix<T> &a, const std::vector<T> &x)
{
    TIE_CHECK_ARG(a.cols() == x.size(), "matVec shape mismatch: ",
                  a.rows(), "x", a.cols(), " * ", x.size());
    std::vector<T> y(a.rows(), T(0));
    gemm::gemvBlocked(a.rows(), a.cols(), a.data(), x.data(), y.data());
    return y;
}

/** Elementwise a + b. */
template <typename T>
Matrix<T>
add(const Matrix<T> &a, const Matrix<T> &b)
{
    TIE_CHECK_ARG(a.rows() == b.rows() && a.cols() == b.cols(),
                  "add shape mismatch");
    Matrix<T> c = a;
    for (size_t i = 0; i < c.size(); ++i)
        c.flat()[i] += b.flat()[i];
    return c;
}

/** Elementwise a - b. */
template <typename T>
Matrix<T>
sub(const Matrix<T> &a, const Matrix<T> &b)
{
    TIE_CHECK_ARG(a.rows() == b.rows() && a.cols() == b.cols(),
                  "sub shape mismatch");
    Matrix<T> c = a;
    for (size_t i = 0; i < c.size(); ++i)
        c.flat()[i] -= b.flat()[i];
    return c;
}

/** Elementwise scale by @p s. */
template <typename T>
Matrix<T>
scale(const Matrix<T> &a, T s)
{
    Matrix<T> c = a;
    for (auto &x : c.flat())
        x *= s;
    return c;
}

/** Frobenius norm. */
template <typename T>
double
frobeniusNorm(const Matrix<T> &a)
{
    double s = 0.0;
    for (const auto &x : a.flat())
        s += static_cast<double>(x) * static_cast<double>(x);
    return std::sqrt(s);
}

/** Largest absolute elementwise difference between two matrices. */
template <typename T>
double
maxAbsDiff(const Matrix<T> &a, const Matrix<T> &b)
{
    TIE_CHECK_ARG(a.rows() == b.rows() && a.cols() == b.cols(),
                  "maxAbsDiff shape mismatch");
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        double d = std::abs(static_cast<double>(a.flat()[i]) -
                            static_cast<double>(b.flat()[i]));
        m = std::max(m, d);
    }
    return m;
}

/**
 * Relative Frobenius error ||a - b||_F / ||b||_F. A zero reference is
 * special-cased: 0 when a is also zero (exact match), +inf otherwise —
 * a nonzero a is infinitely wrong relative to a zero b, not "100% off".
 */
template <typename T>
double
relativeError(const Matrix<T> &a, const Matrix<T> &b)
{
    double denom = frobeniusNorm(b);
    if (denom == 0.0) {
        return frobeniusNorm(a) == 0.0
                   ? 0.0
                   : std::numeric_limits<double>::infinity();
    }
    return frobeniusNorm(sub(a, b)) / denom;
}

/** Human-readable matrix dump (small matrices / diagnostics). */
std::string toString(const MatrixD &m, int precision = 4);
std::string toString(const MatrixF &m, int precision = 4);

} // namespace tie

#endif // TIE_LINALG_MATRIX_HH
