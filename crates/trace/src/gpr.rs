//! Exact Gaussian-process regression with the paper's kernel family
//! (white noise + periodic + RBF) and log-marginal-likelihood
//! hyperparameter selection — a from-scratch stand-in for the
//! scikit-learn GPR the paper uses to predict next-hour demand (§6,
//! Fig. 4).
//!
//! Targets are standardized internally; inputs are time stamps in hours.

/// Kernel hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Kernel {
    /// RBF variance.
    pub rbf_var: f64,
    /// RBF length scale (hours).
    pub rbf_len: f64,
    /// Periodic-kernel variance.
    pub per_var: f64,
    /// Periodic length scale.
    pub per_len: f64,
    /// Period (hours); the diurnal cycle is 24.
    pub period: f64,
    /// White-noise variance.
    pub noise_var: f64,
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel {
            rbf_var: 0.5,
            rbf_len: 20.0,
            per_var: 0.5,
            per_len: 1.0,
            period: 24.0,
            noise_var: 0.05,
        }
    }
}

impl Kernel {
    /// Covariance between time stamps `a` and `b` (noise excluded).
    pub fn eval(&self, a: f64, b: f64) -> f64 {
        let d = a - b;
        let rbf = self.rbf_var * (-d * d / (2.0 * self.rbf_len * self.rbf_len)).exp();
        let s = (std::f64::consts::PI * d / self.period).sin();
        let per = self.per_var * (-2.0 * s * s / (self.per_len * self.per_len)).exp();
        rbf + per
    }
}

/// A fitted Gaussian-process regressor.
#[derive(Clone, Debug)]
pub struct Gpr {
    kernel: Kernel,
    times: Vec<f64>,
    /// `K⁻¹ (y − μ)` via Cholesky.
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    log_marginal: f64,
}

/// Errors from GPR fitting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GprError {
    /// Fewer than two observations.
    TooFewObservations,
    /// The kernel matrix was not positive definite.
    NotPositiveDefinite,
}

impl std::fmt::Display for GprError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GprError::TooFewObservations => write!(f, "need at least two observations"),
            GprError::NotPositiveDefinite => write!(f, "kernel matrix not positive definite"),
        }
    }
}

impl std::error::Error for GprError {}

/// The hyperparameter grid searched by [`Gpr::fit_grid`] and
/// [`rolling_forecast`], in selection order (ties keep the earlier kernel).
const GRID: [Kernel; 12] = [
    grid_kernel(10.0, 0.6, 0.01),
    grid_kernel(10.0, 0.6, 0.1),
    grid_kernel(10.0, 1.2, 0.01),
    grid_kernel(10.0, 1.2, 0.1),
    grid_kernel(40.0, 0.6, 0.01),
    grid_kernel(40.0, 0.6, 0.1),
    grid_kernel(40.0, 1.2, 0.01),
    grid_kernel(40.0, 1.2, 0.1),
    grid_kernel(150.0, 0.6, 0.01),
    grid_kernel(150.0, 0.6, 0.1),
    grid_kernel(150.0, 1.2, 0.01),
    grid_kernel(150.0, 1.2, 0.1),
];

const fn grid_kernel(rbf_len: f64, per_len: f64, noise_var: f64) -> Kernel {
    Kernel {
        rbf_var: 0.5,
        rbf_len,
        per_var: 0.5,
        per_len,
        period: 24.0,
        noise_var,
    }
}

impl Gpr {
    /// Fits a GP with fixed hyperparameters to observations
    /// `(times[i], values[i])`.
    ///
    /// # Errors
    ///
    /// [`GprError`] on degenerate inputs.
    pub fn fit(kernel: Kernel, times: &[f64], values: &[f64]) -> Result<Self, GprError> {
        let n = times.len();
        if n < 2 || values.len() != n {
            return Err(GprError::TooFewObservations);
        }
        let (y_mean, y_std) = standardize(values);
        let factor = Factor::new(&kernel, n, |i, j| kernel.eval(times[i], times[j]));
        if factor.rows() < n {
            return Err(GprError::NotPositiveDefinite);
        }
        // alpha = L⁻ᵀ L⁻¹ y.
        let mut alpha: Vec<f64> = values.iter().map(|v| (v - y_mean) / y_std).collect();
        factor.forward_solve(&mut alpha);
        let log_marginal = factor.log_marginal(&alpha);
        factor.backward_solve(&mut alpha);

        Ok(Gpr {
            kernel,
            times: times.to_vec(),
            alpha,
            y_mean,
            y_std,
            log_marginal,
        })
    }

    /// Fits with a small grid search over hyperparameters, keeping the
    /// maximum log-marginal-likelihood model (the paper's "maximum
    /// marginal likelihood fitting").
    ///
    /// # Errors
    ///
    /// [`GprError`] if every candidate fails.
    pub fn fit_grid(times: &[f64], values: &[f64]) -> Result<Self, GprError> {
        let mut best: Option<Gpr> = None;
        for kernel in GRID {
            if let Ok(model) = Gpr::fit(kernel, times, values) {
                if best
                    .as_ref()
                    .is_none_or(|b| model.log_marginal > b.log_marginal)
                {
                    best = Some(model);
                }
            }
        }
        best.ok_or(GprError::NotPositiveDefinite)
    }

    /// Posterior-mean prediction at time `t`.
    pub fn predict(&self, t: f64) -> f64 {
        let k_star: f64 = self
            .times
            .iter()
            .zip(&self.alpha)
            .map(|(&ti, &a)| self.kernel.eval(t, ti) * a)
            .sum();
        self.y_mean + self.y_std * k_star
    }

    /// Log marginal likelihood of the fitted model (standardized targets).
    pub fn log_marginal(&self) -> f64 {
        self.log_marginal
    }

    /// The kernel used by the fitted model.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }
}

/// Mean and (floored) standard deviation used to standardize targets.
fn standardize(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let y_mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - y_mean).powi(2)).sum::<f64>() / n;
    (y_mean, var.sqrt().max(1e-12))
}

/// Lower Cholesky factor `L` of `K + (σ_n² + 10⁻¹⁰) I`, where
/// `K[i][j] = cov(i, j)` (`j ≤ i`) comes from the kernel, computed row by
/// row until the first non-positive pivot.
///
/// Row `i` of `L` reads only `K`'s row `i` and rows `< i` of `L`, so the
/// factor of a leading principal block of `K` is bit-for-bit the leading
/// block of this one, and that block is positive definite exactly when
/// it lies within [`Factor::rows`]. One factor over the longest window
/// thus serves every shorter window of the same kernel.
struct Factor {
    /// Row-major with stride `n`; the lower triangle of the first
    /// `rows()` rows holds `L`.
    l: Vec<f64>,
    n: usize,
    /// `log_det[m] = Σ_{i<m} ln L_ii` for every factored prefix `m`.
    log_det: Vec<f64>,
}

impl Factor {
    fn new(kernel: &Kernel, n: usize, cov: impl Fn(usize, usize) -> f64) -> Self {
        let mut l = vec![0.0; n * n];
        let mut log_det = Vec::with_capacity(n + 1);
        log_det.push(0.0);
        'rows: for i in 0..n {
            for j in 0..=i {
                let mut sum = cov(i, j);
                if i == j {
                    sum += kernel.noise_var + 1e-10;
                }
                for k in 0..j {
                    sum -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if sum <= 0.0 {
                        break 'rows;
                    }
                    let d = sum.sqrt();
                    l[i * n + i] = d;
                    log_det.push(log_det[i] + d.ln());
                } else {
                    l[i * n + j] = sum / l[j * n + j];
                }
            }
        }
        Factor { l, n, log_det }
    }

    /// Number of leading rows factored: the largest `m` such that the
    /// leading `m × m` block is positive definite.
    fn rows(&self) -> usize {
        self.log_det.len() - 1
    }

    /// Solves `L x = b` in place over the leading `b.len()` rows.
    fn forward_solve(&self, b: &mut [f64]) {
        let n = self.n;
        for i in 0..b.len() {
            let row = &self.l[i * n..i * n + i];
            let mut sum = b[i];
            for (&l_ik, &b_k) in row.iter().zip(&b[..i]) {
                sum -= l_ik * b_k;
            }
            b[i] = sum / self.l[i * n + i];
        }
    }

    /// Solves `Lᵀ x = b` in place over the leading `b.len()` rows.
    fn backward_solve(&self, b: &mut [f64]) {
        let n = self.n;
        for i in (0..b.len()).rev() {
            let mut sum = b[i];
            for (k, &b_k) in b.iter().enumerate().skip(i + 1) {
                sum -= self.l[k * n + i] * b_k;
            }
            b[i] = sum / self.l[i * n + i];
        }
    }

    /// Log marginal likelihood from `z = L⁻¹ y` (before back
    /// substitution): −½‖z‖² − Σ log L_ii − m/2·log 2π.
    fn log_marginal(&self, z: &[f64]) -> f64 {
        -0.5 * z.iter().map(|a| a * a).sum::<f64>()
            - self.log_det[z.len()]
            - 0.5 * z.len() as f64 * (2.0 * std::f64::consts::PI).ln()
    }
}

/// One refit of [`rolling_forecast`]: the training window of one series
/// ending (exclusive) at hour `end`, and its best model so far.
struct Refit<'a> {
    series: usize,
    end: usize,
    values: &'a [f64],
    y_mean: f64,
    y_std: f64,
    /// Best grid model so far; its `times` are filled in once the grid
    /// is exhausted.
    best: Option<Gpr>,
}

/// Rolling next-hour prediction over an evaluation window for several
/// series at once, refitting every `refit_every` hours (the paper refits
/// every 5 hours, footnote 6) with the [`Gpr::fit_grid`] search.
///
/// Each series holds training history followed by `eval_hours`
/// evaluation points; the result holds one prediction per evaluation
/// hour for each series, in input order. A model only ever sees
/// observations strictly before the hours it predicts. `window` caps the
/// history length used for fitting (most recent points).
///
/// The output is bit-identical to running `Gpr::fit_grid` on each refit
/// window (time stamps are hour indices) and predicting with it, but
/// each grid kernel is factored once instead of once per refit: refit
/// windows are runs of consecutive integer hours, [`Kernel::eval`]
/// depends only on the (exact) difference of its arguments, so the
/// kernel matrix — and its Cholesky factor and log-determinant — depend
/// only on the kernel and the window length, and shorter windows use a
/// leading block of the longest window's factor. Only one factor is live
/// at a time.
///
/// # Errors
///
/// [`GprError::NotPositiveDefinite`] if some refit window has fewer than
/// two points or no grid kernel factors on it (as [`Gpr::fit_grid`]).
///
/// # Panics
///
/// If a series has no more than `eval_hours` points, or `refit_every`
/// is zero.
pub fn rolling_forecast(
    series: &[&[f64]],
    eval_hours: usize,
    refit_every: usize,
    window: usize,
) -> Result<Vec<Vec<f64>>, GprError> {
    for s in series {
        assert!(eval_hours < s.len(), "series too short");
    }
    assert!(refit_every >= 1);
    let mut refits = Vec::new();
    for (si, s) in series.iter().enumerate() {
        let train_len = s.len() - eval_hours;
        for h in (0..eval_hours).step_by(refit_every) {
            let end = train_len + h;
            let values = &s[end.saturating_sub(window)..end];
            if values.len() < 2 {
                // `Gpr::fit` rejects every grid kernel.
                return Err(GprError::NotPositiveDefinite);
            }
            let (y_mean, y_std) = standardize(values);
            refits.push(Refit {
                series: si,
                end,
                values,
                y_mean,
                y_std,
                best: None,
            });
        }
    }

    let longest = refits.iter().map(|r| r.values.len()).max().unwrap_or(0);
    let mut z = Vec::with_capacity(longest);
    for kernel in GRID {
        // Covariance by lag: `eval(d, 0)` computes the same difference `d`
        // as `eval(t + d, t)` for integer hours.
        let lag: Vec<f64> = (0..longest).map(|d| kernel.eval(d as f64, 0.0)).collect();
        let factor = Factor::new(&kernel, longest, |i, j| lag[i - j]);
        for refit in &mut refits {
            if refit.values.len() > factor.rows() {
                continue; // not positive definite on this window: skipped
            }
            z.clear();
            z.extend(
                refit
                    .values
                    .iter()
                    .map(|v| (v - refit.y_mean) / refit.y_std),
            );
            factor.forward_solve(&mut z);
            let log_marginal = factor.log_marginal(&z);
            if refit
                .best
                .as_ref()
                .is_none_or(|b| log_marginal > b.log_marginal)
            {
                factor.backward_solve(&mut z);
                refit.best = Some(Gpr {
                    kernel,
                    times: Vec::new(),
                    alpha: z.clone(),
                    y_mean: refit.y_mean,
                    y_std: refit.y_std,
                    log_marginal,
                });
            }
        }
    }

    let mut predictions: Vec<Vec<f64>> = series
        .iter()
        .map(|_| Vec::with_capacity(eval_hours))
        .collect();
    for refit in refits {
        let mut model = refit.best.ok_or(GprError::NotPositiveDefinite)?;
        let start = refit.end - refit.values.len();
        model.times = (start..refit.end).map(|t| t as f64).collect();
        let stop = (refit.end + refit_every).min(series[refit.series].len());
        predictions[refit.series]
            .extend((refit.end..stop).map(|t| model.predict(t as f64).max(0.0)));
    }
    Ok(predictions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_smooth_function() {
        let times: Vec<f64> = (0..48).map(|t| t as f64).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|t| 10.0 + 3.0 * (2.0 * std::f64::consts::PI * t / 24.0).sin())
            .collect();
        let model = Gpr::fit(Kernel::default(), &times, &values).unwrap();
        // In-sample prediction close to truth.
        for (&t, &v) in times.iter().zip(&values) {
            assert!((model.predict(t) - v).abs() < 0.5, "t={t}");
        }
        // One-step extrapolation continues the cycle.
        let t = 48.0;
        let truth = 10.0 + 3.0 * (2.0 * std::f64::consts::PI * t / 24.0).sin();
        assert!((model.predict(t) - truth).abs() < 1.0);
    }

    #[test]
    fn grid_prefers_better_likelihood() {
        let times: Vec<f64> = (0..72).map(|t| t as f64).collect();
        let values: Vec<f64> = times
            .iter()
            .map(|t| (2.0 * std::f64::consts::PI * t / 24.0).sin())
            .collect();
        let fixed = Gpr::fit(
            Kernel {
                noise_var: 1.0,
                ..Kernel::default()
            },
            &times,
            &values,
        )
        .unwrap();
        let grid = Gpr::fit_grid(&times, &values).unwrap();
        assert!(grid.log_marginal() >= fixed.log_marginal());
    }

    #[test]
    fn kernel_is_symmetric_positive_and_periodic() {
        let k = Kernel::default();
        for (a, b) in [(0.0, 5.0), (3.0, 100.0), (-2.0, 7.5)] {
            assert!((k.eval(a, b) - k.eval(b, a)).abs() < 1e-15, "symmetry");
            assert!(k.eval(a, b) > 0.0, "positivity for the sum kernel");
            assert!(k.eval(a, a) >= k.eval(a, b), "diagonal dominance");
        }
        // The periodic component repeats every `period` hours: at lag 24
        // the periodic part is maximal again (only the RBF decays).
        let no_rbf = Kernel {
            rbf_var: 0.0,
            ..Kernel::default()
        };
        assert!((no_rbf.eval(0.0, 24.0) - no_rbf.eval(0.0, 0.0)).abs() < 1e-12);
        assert!(no_rbf.eval(0.0, 12.0) < no_rbf.eval(0.0, 24.0));
    }

    #[test]
    fn constant_series_predicts_the_constant() {
        let times: Vec<f64> = (0..30).map(|t| t as f64).collect();
        let values = vec![42.0; 30];
        let model = Gpr::fit(Kernel::default(), &times, &values).unwrap();
        assert!((model.predict(30.0) - 42.0).abs() < 1e-6);
        assert!((model.predict(15.5) - 42.0).abs() < 1e-6);
    }

    #[test]
    fn factor_prefix_matches_fit_on_every_leading_window() {
        // A slightly negative noise variance makes the kernel matrix
        // indefinite part-way in (after 11 rows), so the prefix rule is
        // checked on both sides of the failing pivot.
        let kernel = Kernel {
            noise_var: -1e-8,
            ..Kernel::default()
        };
        let times: Vec<f64> = (0..40).map(|t| t as f64).collect();
        let values: Vec<f64> = times.iter().map(|t| (t * 0.3).sin()).collect();
        let factor = Factor::new(&kernel, times.len(), |i, j| kernel.eval(times[i], times[j]));
        assert!(factor.rows() > 1 && factor.rows() < times.len());
        for m in 2..=times.len() {
            let fit = Gpr::fit(kernel, &times[..m], &values[..m]);
            assert_eq!(fit.is_ok(), m <= factor.rows(), "m = {m}");
            if let Ok(model) = fit {
                let (y_mean, y_std) = standardize(&values[..m]);
                let mut z: Vec<f64> = values[..m].iter().map(|v| (v - y_mean) / y_std).collect();
                factor.forward_solve(&mut z);
                let lml = factor.log_marginal(&z);
                assert_eq!(lml.to_bits(), model.log_marginal().to_bits(), "m = {m}");
            }
        }
    }

    #[test]
    fn rejects_tiny_input() {
        assert_eq!(
            Gpr::fit(Kernel::default(), &[0.0], &[1.0]).unwrap_err(),
            GprError::TooFewObservations
        );
    }

    #[test]
    fn rolling_forecast_beats_naive_on_periodic_signal() {
        // Periodic signal with mild noise: GPR should out-predict the
        // "previous hour" baseline.
        use crate::standard_normal;
        use jcr_ctx::rng::SeedableRng;
        let mut rng = jcr_ctx::rng::StdRng::seed_from_u64(12);
        let n = 120;
        let eval = 24;
        let series: Vec<f64> = (0..n)
            .map(|t| {
                100.0
                    + 40.0 * (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin()
                    + 2.0 * standard_normal(&mut rng)
            })
            .collect();
        let preds = rolling_forecast(&[&series], eval, 5, 96).unwrap().remove(0);
        let truth = &series[n - eval..];
        let rmse_gpr: f64 = (preds
            .iter()
            .zip(truth)
            .map(|(p, t)| (p - t).powi(2))
            .sum::<f64>()
            / eval as f64)
            .sqrt();
        let rmse_naive: f64 = ((0..eval)
            .map(|h| (series[n - eval + h - 1] - truth[h]).powi(2))
            .sum::<f64>()
            / eval as f64)
            .sqrt();
        assert!(
            rmse_gpr < rmse_naive,
            "GPR RMSE {rmse_gpr} ≥ naive RMSE {rmse_naive}"
        );
    }
}
