//! `gpr::rolling_forecast` against the naive loop it replaces: one
//! `Gpr::fit_grid` per refit window, then `predict` for each hour until
//! the next refit. The batched forecast shares one Cholesky factor per
//! grid kernel across all refits and series, so equality here is bitwise.

use jcr_trace::gpr::{rolling_forecast, Gpr, GprError};
use jcr_trace::synth::ViewTrace;
use jcr_trace::videos::{top_videos, TRAIN_HOURS};

/// The per-series reference: a fresh grid fit on every refit window.
fn reference(
    series: &[f64],
    eval_hours: usize,
    refit_every: usize,
    window: usize,
) -> Result<Vec<f64>, GprError> {
    let train_len = series.len() - eval_hours;
    let mut predictions = Vec::with_capacity(eval_hours);
    let mut model = None;
    for h in 0..eval_hours {
        let end = train_len + h;
        if h % refit_every == 0 {
            let start = end.saturating_sub(window);
            let times: Vec<f64> = (start..end).map(|t| t as f64).collect();
            model = Some(Gpr::fit_grid(&times, &series[start..end])?);
        }
        let fitted = model.as_ref().unwrap();
        predictions.push(fitted.predict(end as f64).max(0.0));
    }
    Ok(predictions)
}

/// Two synthetic video traces cut to `train_hours` of history and
/// `hours` evaluation points, plus a constant series (whose standard
/// deviation hits the floor).
fn series(seed: u64, train_hours: usize, hours: usize) -> Vec<Vec<f64>> {
    let trace = ViewTrace::generate_with_horizon(top_videos(2), seed, train_hours, hours);
    let mut all = trace.views;
    all.push(vec![7.5; train_hours + hours]);
    all
}

fn assert_bit_identical(all: &[Vec<f64>], hours: usize, refit_every: usize, window: usize) {
    let refs: Vec<&[f64]> = all.iter().map(Vec::as_slice).collect();
    let batched = rolling_forecast(&refs, hours, refit_every, window).unwrap();
    assert_eq!(batched.len(), all.len());
    for (si, s) in all.iter().enumerate() {
        let naive = reference(s, hours, refit_every, window).unwrap();
        assert_eq!(batched[si].len(), hours);
        for (h, (b, n)) in batched[si].iter().zip(&naive).enumerate() {
            assert_eq!(
                b.to_bits(),
                n.to_bits(),
                "series {si} hour {h} (hours {hours}, window {window}, refit {refit_every}): {b} vs {n}"
            );
        }
    }
}

#[test]
fn matches_per_window_grid_fits_bitwise() {
    // (train_hours, hours, window, refit_every): the paper's protocol,
    // growing windows (a 600-hour window over a 60-hour history), hourly
    // refits, and a single evaluation hour.
    for (seed, (train_hours, hours, window, refit_every)) in [
        (TRAIN_HOURS, 100, 168, 5),
        (60, 12, 600, 5),
        (TRAIN_HOURS, 7, 48, 1),
        (TRAIN_HOURS, 1, 168, 5),
    ]
    .into_iter()
    .enumerate()
    {
        let all = series(seed as u64, train_hours, hours);
        assert_bit_identical(&all, hours, refit_every, window);
    }
}

#[test]
fn series_of_different_lengths_are_forecast_independently() {
    let mut all = series(5, TRAIN_HOURS, 6);
    all[0].truncate(200);
    all[1].truncate(60);
    assert_bit_identical(&all, 2, 1, 168);
}

#[test]
fn windows_shorter_than_two_points_fail_like_fit_grid() {
    let s: Vec<f64> = (0..30).map(|t| (t as f64).sin() + 2.0).collect();
    // A one-point window (and an empty one).
    for window in [0, 1] {
        assert_eq!(
            reference(&s, 5, 5, window),
            Err(GprError::NotPositiveDefinite)
        );
        assert_eq!(
            rolling_forecast(&[&s], 5, 5, window),
            Err(GprError::NotPositiveDefinite)
        );
    }
    // A one-point training history, even beside a healthy series.
    let short = [1.0, 2.0, 3.0];
    assert_eq!(
        reference(&short, 2, 1, 168),
        Err(GprError::NotPositiveDefinite)
    );
    assert_eq!(
        rolling_forecast(&[&s, &short], 2, 1, 168),
        Err(GprError::NotPositiveDefinite)
    );
}

#[test]
fn no_series_or_no_hours_forecast_nothing() {
    assert_eq!(rolling_forecast(&[], 3, 5, 168), Ok(vec![]));
    assert_eq!(
        rolling_forecast(&[&[1.0, 2.0]], 0, 5, 168),
        Ok(vec![vec![]])
    );
}

#[test]
#[should_panic(expected = "series too short")]
fn too_short_series_panics() {
    let _ = rolling_forecast(&[&[1.0; 10], &[1.0; 5]], 5, 5, 168);
}

#[test]
#[should_panic(expected = "refit_every >= 1")]
fn zero_refit_interval_panics() {
    let _ = rolling_forecast(&[&[1.0; 10]], 5, 0, 168);
}
