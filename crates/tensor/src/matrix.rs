use crate::ShapeError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// A dense, row-major `f32` matrix.
///
/// This is the workhorse type of the reproduction: network weights,
/// activation batches, kernel (Gram) matrices, and pruning masks are all
/// `Matrix` values. A `rows x cols` matrix stores `rows * cols` elements
/// contiguously, row by row.
///
/// # Examples
///
/// ```
/// use eugene_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 6.0);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use eugene_tensor::Matrix;
    /// let z = Matrix::zeros(2, 2);
    /// assert_eq!(z.sum(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a `rows x cols` matrix with every element set to `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`. Use [`Matrix::try_from_vec`]
    /// for a fallible variant.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        Self::try_from_vec(rows, cols, data).expect("buffer length must equal rows * cols")
    }

    /// Creates a matrix from a flat row-major buffer, validating its length.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `data.len() != rows * cols`.
    ///
    /// # Examples
    ///
    /// ```
    /// use eugene_tensor::Matrix;
    /// assert!(Matrix::try_from_vec(2, 2, vec![1.0; 4]).is_ok());
    /// assert!(Matrix::try_from_vec(2, 2, vec![1.0; 3]).is_err());
    /// ```
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, ShapeError> {
        if data.len() != rows * cols {
            return Err(ShapeError::new(
                "from_vec",
                format!("{rows}x{cols} ({} elements)", rows * cols),
                format!("{} elements", data.len()),
            ));
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length or if `rows` is
    /// empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "row {i} has length {} but expected {cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Self {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Creates a single-column matrix from a slice.
    pub fn col_vector(values: &[f32]) -> Self {
        Self {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its flat row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row index {r} out of bounds for {} rows",
            self.rows
        );
        let cols = self.cols;
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(
            c < self.cols,
            "column index {c} out of bounds for {} columns",
            self.cols
        );
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`. Use [`Matrix::try_matmul`]
    /// for a fallible variant.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.try_matmul(rhs).expect("inner dimensions must agree")
    }

    /// Matrix product `self * rhs`, validating dimensions.
    ///
    /// Runs on the crate's cache-blocked kernels, splitting
    /// output rows across the shared worker pool for large products (see
    /// [`crate::set_parallelism`]). Each output row is bitwise identical
    /// whether computed alone, inside a larger batch, or on any thread
    /// count — the serving runtime's micro-batching depends on this.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `self.cols() != rhs.rows()`.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix, ShapeError> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new(
                "matmul",
                format!("lhs cols == rhs rows (lhs is {}x{})", self.rows, self.cols),
                format!("rhs is {}x{}", rhs.rows, rhs.cols),
            ));
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        crate::kernels::gemm_rrr(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Quantizes this matrix as GEMM weights: per-tensor symmetric i8
    /// with panels packed for the current quantized kernel tier. The
    /// pack is built once and reused across every subsequent
    /// [`Matrix::matmul_quantized`] call and k-sweep.
    pub fn quantized_rhs(&self) -> crate::QuantizedRhs {
        crate::QuantizedRhs::pack(self.rows, self.cols, &self.data)
    }

    /// Matrix product `self * rhs` on the quantized i8 kernel tier:
    /// activations are quantized per-row on the fly, accumulation is
    /// exact i32, and the result is dequantized back to f32. Output
    /// rows remain bitwise independent of batch shape, like the f32
    /// kernels.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` was not packed for shape `(self.cols(), n)`.
    pub fn matmul_quantized(&self, rhs: &crate::QuantizedRhs) -> Matrix {
        let (k, n) = rhs.shape();
        assert_eq!(
            self.cols, k,
            "matmul_quantized requires lhs cols == packed rhs rows (lhs is {}x{}, rhs packed {}x{})",
            self.rows, self.cols, k, n
        );
        let mut out = Matrix::zeros(self.rows, n);
        crate::quant::qgemm(self.rows, k, n, &self.data, rhs, &mut out.data);
        out
    }

    /// Resets to a zero-filled `rows x cols` matrix, reusing the
    /// existing allocation whenever capacity allows. The arena-reuse
    /// primitive behind compiled-plan buffers: after warm-up, a plan's
    /// intermediates never touch the allocator again.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Pre-packs this matrix as f32 GEMM weights for the current kernel
    /// tier (the f32 analog of [`Matrix::quantized_rhs`]): the column
    /// panels the blocked kernel would rebuild on every product are
    /// built once and reused by [`Matrix::matmul_epilogue_into`].
    /// Packing is pure layout, so prepacked products stay bitwise equal
    /// to per-call-packed ones.
    pub fn prepacked_rhs(&self) -> crate::PackedRhs {
        crate::PackedRhs::pack(self.rows, self.cols, &self.data)
    }

    /// Matrix product with a fused elementwise tail, into a caller-owned
    /// buffer: `out = relu(self * rhs + bias)` with both the bias add
    /// and the relu optional, and `rhs` optionally pre-packed
    /// ([`Matrix::prepacked_rhs`]). `out` is reshaped in place
    /// ([`Matrix::reset_zeroed`]), so steady-state calls allocate
    /// nothing.
    ///
    /// Bitwise equal to `self.matmul(rhs)` followed by
    /// [`Matrix::add_row_broadcast`] and a `max(0.0)` map, on every
    /// kernel tier — the compiled-plan path relies on this to reproduce
    /// the layer-walk exactly.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`, if `bias` is present with
    /// length other than `rhs.cols()`, or if `prepacked` was built from
    /// a different shape.
    pub fn matmul_epilogue_into(
        &self,
        rhs: &Matrix,
        prepacked: Option<&crate::PackedRhs>,
        bias: Option<&[f32]>,
        relu: bool,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_epilogue_into requires lhs cols == rhs rows (lhs is {}x{}, rhs is {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        if let Some(b) = bias {
            assert_eq!(
                b.len(),
                rhs.cols,
                "bias must have length {} (got {})",
                rhs.cols,
                b.len()
            );
        }
        if let Some(p) = prepacked {
            assert_eq!(
                p.shape(),
                (rhs.rows, rhs.cols),
                "prepacked panels were built for another shape"
            );
        }
        out.reset_zeroed(self.rows, rhs.cols);
        crate::kernels::gemm_rrr_epilogue(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            prepacked,
            &mut out.data,
            crate::simd::Epilogue { bias, relu },
        );
    }

    /// Quantized-tier sibling of [`Matrix::matmul_epilogue_into`]:
    /// `out = relu(self * rhs + bias)` over the i8 kernel, with the
    /// elementwise tail applied after dequantization in the exact
    /// layer-walk order (bitwise equal to [`Matrix::matmul_quantized`]
    /// followed by the separate bias/relu passes). The weights are
    /// already packed per tier inside [`crate::QuantizedRhs`].
    ///
    /// # Panics
    ///
    /// Panics if `rhs` was not packed for shape `(self.cols(), n)` or
    /// if `bias` is present with length other than `n`.
    pub fn matmul_quantized_epilogue_into(
        &self,
        rhs: &crate::QuantizedRhs,
        bias: Option<&[f32]>,
        relu: bool,
        out: &mut Matrix,
    ) {
        let (k, n) = rhs.shape();
        assert_eq!(
            self.cols, k,
            "matmul_quantized_epilogue_into requires lhs cols == packed rhs rows (lhs is {}x{}, rhs packed {}x{})",
            self.rows, self.cols, k, n
        );
        if let Some(b) = bias {
            assert_eq!(b.len(), n, "bias must have length {n} (got {})", b.len());
        }
        out.reset_zeroed(self.rows, n);
        crate::quant::qgemm(self.rows, k, n, &self.data, rhs, &mut out.data);
        if self.rows > 0 && n > 0 {
            crate::simd::Epilogue { bias, relu }.apply(&mut out.data, n, 0, self.rows, 0, n);
        }
    }

    /// Matrix product `self^T * rhs`.
    ///
    /// Packs `self^T` into a row-major buffer and reuses the blocked
    /// kernel path, so backward passes get the same blocking
    /// and parallelism as forward ones.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul requires equal row counts (lhs {}x{}, rhs {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let packed = crate::kernels::transpose_pack(self.rows, self.cols, &self.data);
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        crate::kernels::gemm_rrr(
            self.cols,
            self.rows,
            rhs.cols,
            &packed,
            &rhs.data,
            &mut out.data,
        );
        out
    }

    /// Matrix product `self * rhs^T`.
    ///
    /// Packs `rhs^T` into a row-major buffer and reuses the blocked
    /// kernel path.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t requires equal column counts (lhs {}x{}, rhs {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let packed = crate::kernels::transpose_pack(rhs.rows, rhs.cols, &rhs.data);
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        crate::kernels::gemm_rrr(
            self.rows,
            self.cols,
            rhs.rows,
            &self.data,
            &packed,
            &mut out.data,
        );
        out
    }

    /// Naive i-k-j product retained as the correctness reference for the
    /// blocked kernels (property tests) and as the bench baseline. Unlike
    /// the pre-blocking kernel it never skips zero multiplicands, so IEEE
    /// non-finite propagation (`0.0 * NaN = NaN`) holds here too.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul_reference requires lhs cols == rhs rows (lhs {}x{}, rhs {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let out_row = i * rhs.cols;
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                let rhs_row = k * rhs.cols;
                for j in 0..rhs.cols {
                    out.data[out_row + j] += a * rhs.data[rhs_row + j];
                }
            }
        }
        out
    }

    /// Naive reference for [`Matrix::t_matmul`]; see
    /// [`Matrix::matmul_reference`].
    pub fn t_matmul_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul_reference requires equal row counts (lhs {}x{}, rhs {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for k in 0..self.rows {
            let lhs_row = k * self.cols;
            let rhs_row = k * rhs.cols;
            for i in 0..self.cols {
                let a = self.data[lhs_row + i];
                let out_row = i * rhs.cols;
                for j in 0..rhs.cols {
                    out.data[out_row + j] += a * rhs.data[rhs_row + j];
                }
            }
        }
        out
    }

    /// Naive reference for [`Matrix::matmul_t`]; see
    /// [`Matrix::matmul_reference`].
    pub fn matmul_t_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t_reference requires equal column counts (lhs {}x{}, rhs {}x{})",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let lhs_row = i * self.cols;
            for j in 0..rhs.rows {
                let rhs_row = j * rhs.cols;
                let mut acc = 0.0;
                for k in 0..self.cols {
                    acc += self.data[lhs_row + k] * rhs.data[rhs_row + k];
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(
            v.len(),
            self.cols,
            "matvec requires vector length {} (got {})",
            self.cols,
            v.len()
        );
        let mut out = vec![0.0; self.rows];
        for (r, out_r) in out.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v) {
                acc += a * b;
            }
            *out_r = acc;
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Element-wise map in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Combines two equal-shaped matrices element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_with(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "element-wise op requires equal shapes ({}x{} vs {}x{})",
            self.rows,
            self.cols,
            rhs.rows,
            rhs.cols
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Adds `scale * rhs` to `self` in place (a fused AXPY).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_scaled(&mut self, rhs: &Matrix, scale: f32) {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "add_scaled requires equal shapes ({}x{} vs {}x{})",
            self.rows,
            self.cols,
            rhs.rows,
            rhs.cols
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += scale * b;
        }
    }

    /// Multiplies every element by `scale` in place.
    pub fn scale_in_place(&mut self, scale: f32) {
        for x in &mut self.data {
            *x *= scale;
        }
    }

    /// Adds `row` (a 1 x cols vector) to every row; used for bias terms.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(
            row.len(),
            self.cols,
            "broadcast row must have length {} (got {})",
            self.cols,
            row.len()
        );
        for r in 0..self.rows {
            let base = r * self.cols;
            for (dst, &src) in self.data[base..base + self.cols].iter_mut().zip(row) {
                *dst += src;
            }
        }
    }

    /// Sums each column into a vector of length `cols`.
    pub fn sum_rows(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let base = r * self.cols;
            for (c, out_c) in out.iter_mut().enumerate() {
                *out_c += self.data[base + c];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Square of the Frobenius norm.
    pub fn frobenius_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Maximum absolute element, or `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, x| m.max(x.abs()))
    }

    /// Concatenates two matrices horizontally (`[self | rhs]`).
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hconcat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "hconcat requires equal row counts ({} vs {})",
            self.rows, rhs.rows
        );
        let cols = self.cols + rhs.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Extracts a sub-matrix keeping only the listed rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &r in indices {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Extracts a sub-matrix keeping only the listed columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        for &c in indices {
            assert!(
                c < self.cols,
                "column index {c} out of bounds for {} columns",
                self.cols
            );
        }
        let mut data = Vec::with_capacity(indices.len() * self.rows);
        for r in 0..self.rows {
            let base = r * self.cols;
            for &c in indices {
                data.push(self.data[base + c]);
            }
        }
        Matrix {
            rows: self.rows,
            cols: indices.len(),
            data,
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(r, c)])?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, scale: f32) -> Matrix {
        self.map(|x| x * scale)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.add_scaled(rhs, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn zeros_and_filled() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert_eq!(z.sum(), 0.0);
        let f = Matrix::filled(2, 2, 1.5);
        assert_eq!(f.sum(), 6.0);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        let expected = Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]);
        assert_eq!(c, expected);
    }

    #[test]
    fn try_matmul_rejects_mismatched_inner_dims() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.try_matmul(&b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        assert!(approx_eq(&a.t_matmul(&b), &a.transpose().matmul(&b), 1e-6));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 10.0]]);
        assert!(approx_eq(&a.matmul_t(&b), &a.matmul(&b.transpose()), 1e-6));
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = [5.0, 6.0];
        let got = a.matvec(&v);
        let expected = a.matmul(&Matrix::col_vector(&v));
        assert_eq!(got, expected.into_vec());
    }

    #[test]
    fn row_and_col_access() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let mut a = Matrix::zeros(2, 3);
        a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sum_rows_accumulates_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum_rows(), vec![4.0, 6.0]);
    }

    #[test]
    fn select_rows_and_cols() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let rows = a.select_rows(&[2, 0]);
        assert_eq!(
            rows,
            Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[1.0, 2.0, 3.0]])
        );
        let cols = a.select_cols(&[1]);
        assert_eq!(cols, Matrix::from_rows(&[&[2.0], &[5.0], &[8.0]]));
    }

    #[test]
    fn operators_add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 2.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn add_scaled_is_axpy() {
        let mut a = Matrix::from_rows(&[&[1.0, 1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 3.0]]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a, Matrix::from_rows(&[&[2.0, 2.5]]));
    }

    #[test]
    fn hadamard_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 8.0]]));
    }

    #[test]
    fn frobenius_and_max_abs() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(a.frobenius_sq(), 25.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    #[should_panic(expected = "row index")]
    fn row_out_of_bounds_panics() {
        Matrix::zeros(1, 1).row(1);
    }

    #[test]
    fn debug_is_nonempty() {
        let repr = format!("{:?}", Matrix::zeros(1, 1));
        assert!(repr.contains("Matrix 1x1"));
    }

    #[test]
    fn matmul_propagates_nan_and_inf_through_zero_coefficients() {
        // Regression: the old kernel skipped k terms where the lhs value
        // was exactly 0.0, silently dropping 0.0 * NaN and 0.0 * inf
        // contributions that IEEE 754 requires to poison the output.
        let lhs = Matrix::from_rows(&[&[0.0, 1.0]]);
        let rhs = Matrix::from_rows(&[&[f32::NAN, f32::INFINITY], &[2.0, 3.0]]);
        let out = lhs.matmul(&rhs);
        assert!(out[(0, 0)].is_nan(), "0.0 * NaN must yield NaN");
        assert!(out[(0, 1)].is_nan(), "0.0 * inf must yield NaN");

        let t_out = lhs.transpose().t_matmul(&rhs);
        assert!(t_out[(0, 0)].is_nan(), "t_matmul must propagate NaN too");
        assert!(t_out[(0, 1)].is_nan());

        let mt_out = lhs.matmul_t(&rhs.transpose());
        assert!(mt_out[(0, 0)].is_nan(), "matmul_t must propagate NaN too");
        assert!(mt_out[(0, 1)].is_nan());
    }

    #[test]
    fn reference_kernels_match_blocked_kernels() {
        let a = Matrix::from_rows(&[&[1.5, -2.0, 0.5], &[0.0, 3.0, -1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 1.0], &[-1.0, 0.5], &[4.0, -3.0]]);
        assert!(approx_eq(&a.matmul(&b), &a.matmul_reference(&b), 1e-6));
        assert!(approx_eq(&a.t_matmul(&a), &a.t_matmul_reference(&a), 1e-6));
        assert!(approx_eq(&b.matmul_t(&b), &b.matmul_t_reference(&b), 1e-6));
    }

    #[test]
    fn matmul_epilogue_into_matches_separate_passes_bitwise() {
        let fill = |seed: usize, len: usize| -> Vec<f32> {
            (0..len)
                .map(|i| (((i * 31 + seed * 17 + 5) % 101) as f32) * 0.33 - 16.0)
                .collect()
        };
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (8, 512, 512), (5, 300, 37)] {
            let lhs = Matrix::from_vec(m, k, fill(m, m * k));
            let rhs = Matrix::from_vec(k, n, fill(n, k * n));
            let bias = fill(m + n, n);
            let mut expect = lhs.matmul(&rhs);
            expect.add_row_broadcast(&bias);
            let expect = expect.map(|x| x.max(0.0));
            let pack = rhs.prepacked_rhs();
            let mut got = Matrix::zeros(0, 0);
            for prepacked in [None, Some(&pack)] {
                lhs.matmul_epilogue_into(&rhs, prepacked, Some(&bias), true, &mut got);
                assert_eq!(got.shape(), (m, n));
                for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn matmul_quantized_epilogue_into_matches_separate_passes_bitwise() {
        let m = 6;
        let k = 64;
        let n = 40;
        let lhs = Matrix::from_vec(
            m,
            k,
            (0..m * k).map(|i| ((i % 17) as f32) * 0.1 - 0.8).collect(),
        );
        let w = Matrix::from_vec(
            k,
            n,
            (0..k * n).map(|i| ((i % 23) as f32) * 0.05 - 0.5).collect(),
        );
        let bias: Vec<f32> = (0..n).map(|i| (i as f32) * 0.01 - 0.2).collect();
        let q = w.quantized_rhs();
        let mut expect = lhs.matmul_quantized(&q);
        expect.add_row_broadcast(&bias);
        let expect = expect.map(|x| x.max(0.0));
        let mut got = Matrix::zeros(0, 0);
        lhs.matmul_quantized_epilogue_into(&q, Some(&bias), true, &mut got);
        assert_eq!(got.shape(), (m, n));
        for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reset_zeroed_reuses_capacity_and_zeroes() {
        let mut m = Matrix::filled(4, 8, 3.0);
        let ptr = m.as_slice().as_ptr();
        m.reset_zeroed(2, 8);
        assert_eq!(m.shape(), (2, 8));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(m.as_slice().as_ptr(), ptr, "shrinking must not reallocate");
    }

    #[test]
    fn iter_rows_yields_each_row() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let rows: Vec<&[f32]> = a.iter_rows().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }
}
