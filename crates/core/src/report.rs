//! Result containers and rendering: CSV output, ASCII tables and charts.
//!
//! The paper's artifact writes a `runtimes.csv` and a throughput figure
//! per test; this module provides the equivalent (CSV plus terminal
//! rendering) for every regenerated table and figure.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::error::Result;

/// One plotted line: a label (e.g. `"int"` or `"128 blocks"`) and
/// `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` pairs in ascending-x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series from a label and points.
    #[must_use]
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// The y value at the given x, if present.
    #[must_use]
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }

    /// Largest y value.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty.
    #[must_use]
    pub fn y_max(&self) -> f64 {
        crate::stats::max(&self.points.iter().map(|p| p.1).collect::<Vec<_>>())
    }

    /// Smallest y value.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty.
    #[must_use]
    pub fn y_min(&self) -> f64 {
        crate::stats::min(&self.points.iter().map(|p| p.1).collect::<Vec<_>>())
    }
}

/// The data behind one regenerated figure (or figure panel).
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Identifier, e.g. `"fig01"` or `"fig03a"`.
    pub id: String,
    /// Title, e.g. `"Throughput of OpenMP Barrier"`.
    pub title: String,
    /// X-axis label (usually "threads").
    pub x_label: String,
    /// Y-axis label (usually "ops/s/thread").
    pub y_label: String,
    /// Whether the x axis is logarithmic (the CUDA figures).
    pub log_x: bool,
    /// The plotted lines.
    pub series: Vec<Series>,
    /// Free-form notes (e.g. where the hyperthreading boundary lies).
    pub annotations: Vec<String>,
}

impl FigureData {
    /// Creates an empty figure.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        FigureData {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            log_x: false,
            series: Vec::new(),
            annotations: Vec::new(),
        }
    }

    /// Marks the x axis logarithmic (builder style).
    #[must_use]
    pub fn with_log_x(mut self) -> Self {
        self.log_x = true;
        self
    }

    /// Adds a series.
    pub fn push_series(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Adds an annotation line.
    pub fn annotate(&mut self, note: impl Into<String>) {
        self.annotations.push(note.into());
    }

    /// Finds a series by label.
    #[must_use]
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Renders the figure as CSV: header `x,<label1>,<label2>,…`, one
    /// row per distinct x value (blank cells where a series has no
    /// point).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN x"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut out = String::new();
        out.push_str(&csv_escape(&self.x_label));
        for s in &self.series {
            out.push(',');
            out.push_str(&csv_escape(&s.label));
        }
        out.push('\n');
        for x in xs {
            push_num(&mut out, x);
            for s in &self.series {
                out.push(',');
                if let Some(y) = s.y_at(x) {
                    push_num(&mut out, y);
                }
            }
            out.push('\n');
        }
        out
    }

    /// Writes `<id>.csv` into `dir`, creating `dir` if needed. A file
    /// that already holds these exact bytes is not rewritten, so its
    /// mtime moves only when the figure changed.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be written.
    pub fn write_csv(&self, dir: impl AsRef<Path>) -> Result<()> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        write_if_changed(dir.join(format!("{}.csv", self.id)), self.to_csv())?;
        Ok(())
    }

    /// Parses a figure back from [`FigureData::to_csv`] output — the
    /// inverse used by the `plot` tool to re-render stored results.
    ///
    /// The id/title/axis metadata other than the x label is not stored
    /// in the CSV; the caller supplies an id and the header row's first
    /// cell becomes the x label.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SyncPerfError::Io`] for an empty document or
    /// malformed rows.
    pub fn from_csv(id: impl Into<String>, csv: &str) -> crate::error::Result<Self> {
        use crate::error::SyncPerfError;
        let mut lines = csv.lines();
        let header = lines
            .next()
            .ok_or_else(|| SyncPerfError::Io("empty csv".into()))?;
        let mut cols = split_csv_row(header);
        if cols.is_empty() {
            return Err(SyncPerfError::Io("empty csv header".into()));
        }
        let x_label = cols.remove(0);
        let mut series: Vec<Series> = cols
            .iter()
            .map(|label| Series::new(label.clone(), Vec::new()))
            .collect();
        for (row_no, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let fields = split_csv_row(line);
            if fields.len() != series.len() + 1 {
                return Err(SyncPerfError::Io(format!(
                    "csv row {}: expected {} fields, got {}",
                    row_no + 2,
                    series.len() + 1,
                    fields.len()
                )));
            }
            let x: f64 = fields[0]
                .parse()
                .map_err(|e| SyncPerfError::Io(format!("bad x `{}`: {e}", fields[0])))?;
            for (s, field) in series.iter_mut().zip(&fields[1..]) {
                if field.is_empty() {
                    continue; // missing point for this series
                }
                let y: f64 = field
                    .parse()
                    .map_err(|e| SyncPerfError::Io(format!("bad y `{field}`: {e}")))?;
                s.points.push((x, y));
            }
        }
        let id = id.into();
        let mut fig = FigureData::new(id.clone(), id, x_label, "y");
        for s in series {
            fig.push_series(s);
        }
        Ok(fig)
    }

    /// Renders a fixed-width table: one row per x, one column per
    /// series, engineering-formatted values.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        let _ = writeln!(out, "y: {}", self.y_label);
        let col_w = 12usize.max(
            self.series
                .iter()
                .map(|s| s.label.len() + 2)
                .max()
                .unwrap_or(12),
        );
        let _ = write!(out, "{:>10}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "{:>col_w$}", s.label);
        }
        out.push('\n');

        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN x"));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut cell = String::new();
        for x in xs {
            cell.clear();
            push_num(&mut cell, x);
            push_right(&mut out, &cell, 10);
            for s in &self.series {
                cell.clear();
                match s.y_at(x) {
                    Some(y) => push_eng(&mut cell, y),
                    None => cell.push('-'),
                }
                push_right(&mut out, &cell, col_w);
            }
            out.push('\n');
        }
        for note in &self.annotations {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Renders a rough ASCII line chart (`height` rows tall), one
    /// letter per series. Intended for eyeballing figure shapes in a
    /// terminal.
    #[must_use]
    pub fn render_ascii(&self, width: usize, height: usize) -> String {
        if self.series.is_empty() || self.series.iter().all(|s| s.points.is_empty()) {
            return format!("{} — (no data)\n", self.id);
        }
        let ymax = self
            .series
            .iter()
            .filter(|s| !s.points.is_empty())
            .map(Series::y_max)
            .fold(f64::MIN, f64::max)
            .max(f64::MIN_POSITIVE);
        let (xmin, xmax) = self.x_range();
        let mut grid = vec![vec![b' '; width]; height];
        let markers: &[u8] = b"*o+x#@%&";

        for (si, s) in self.series.iter().enumerate() {
            let m = markers[si % markers.len()];
            for &(x, y) in &s.points {
                let xi = self.x_to_col(x, xmin, xmax, width);
                let frac = (y / ymax).clamp(0.0, 1.0);
                let yi = ((1.0 - frac) * (height - 1) as f64).round() as usize;
                grid[yi.min(height - 1)][xi.min(width - 1)] = m;
            }
        }

        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        out.push_str("y_max = ");
        push_eng(&mut out, ymax);
        let _ = writeln!(out, " {}", self.y_label);
        for row in grid {
            out.push('|');
            out.push_str(std::str::from_utf8(&row).expect("ascii grid"));
            out.push('\n');
        }
        let _ = writeln!(out, "+{}", "-".repeat(width));
        let _ = write!(out, " x: {} from ", self.x_label);
        push_num(&mut out, xmin);
        out.push_str(" to ");
        push_num(&mut out, xmax);
        out.push_str(if self.log_x { " (log scale)\n" } else { "\n" });
        for (si, s) in self.series.iter().enumerate() {
            let _ = writeln!(
                out,
                "   {} = {}",
                markers[si % markers.len()] as char,
                s.label
            );
        }
        out
    }

    fn x_range(&self) -> (f64, f64) {
        let xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        (crate::stats::min(&xs), crate::stats::max(&xs))
    }

    fn x_to_col(&self, x: f64, xmin: f64, xmax: f64, width: usize) -> usize {
        let frac = if self.log_x && xmin > 0.0 && xmax > xmin {
            (x.ln() - xmin.ln()) / (xmax.ln() - xmin.ln())
        } else if xmax > xmin {
            (x - xmin) / (xmax - xmin)
        } else {
            0.0
        };
        ((frac.clamp(0.0, 1.0)) * (width - 1) as f64).round() as usize
    }
}

/// Splits one CSV row, honoring the quoting produced by `csv_escape`.
fn split_csv_row(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                chars.next();
                field.push('"');
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => out.push(std::mem::take(&mut field)),
            other => field.push(other),
        }
    }
    out.push(field);
    out
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Writes `bytes` to `path` as [`fs::write`] does, unless the file
/// already holds exactly these bytes: then it is left untouched (same
/// inode, same mtime). A missing or unreadable file is written.
///
/// # Errors
///
/// Returns the error of the write.
pub fn write_if_changed(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> std::io::Result<()> {
    let (path, bytes) = (path.as_ref(), bytes.as_ref());
    if fs::read(path).is_ok_and(|old| old == bytes) {
        return Ok(());
    }
    fs::write(path, bytes)
}

/// Pushes `cell` right-aligned in `width` columns, as `{:>width$}`
/// does.
fn push_right(out: &mut String, cell: &str, width: usize) {
    for _ in cell.chars().count()..width {
        out.push(' ');
    }
    out.push_str(cell);
}

/// Pushes `v` as a plain integer when it is one, else in `{}` form.
fn push_num(out: &mut String, v: f64) {
    if v == v.trunc() && v.abs() < 1e15 {
        if v < 0.0 {
            out.push('-');
        }
        crate::numfmt::push_u64(out, v.abs() as u64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Pushes [`fmt_eng`]'s rendering of `v`.
pub(crate) fn push_eng(out: &mut String, v: f64) {
    if v == 0.0 {
        out.push('0');
    } else {
        crate::numfmt::push_sci3(out, v);
    }
}

/// Engineering formatting: `3.21e8` style with three significant digits.
#[must_use]
pub fn fmt_eng(v: f64) -> String {
    let mut out = String::new();
    push_eng(&mut out, v);
    out
}

/// Renders a recorder's counter/gauge [`Snapshot`](crate::obs::Snapshot)
/// as a fixed-width ASCII table, prefixed with the protocol retry
/// summary when any `protocol.*` counters are present. A `--trace` run
/// prints it next to the Chrome JSON it writes, as that trace's
/// human-readable companion.
#[must_use]
pub fn render_obs_summary(snap: &crate::obs::Snapshot) -> String {
    let mut out = String::new();
    let retry = crate::protocol::RetrySummary::from_snapshot(snap);
    if retry.attempts > 0 {
        let _ = writeln!(out, "protocol health");
        let _ = writeln!(
            out,
            "  attempts {} rejected {} ({:.1}%), runs {} exhausted {}, negligible {}",
            retry.attempts,
            retry.rejected,
            100.0 * retry.rejection_rate(),
            retry.runs,
            retry.exhausted_runs,
            retry.negligible_verdicts,
        );
        out.push('\n');
    }
    let name_w = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .map(String::len)
        .max()
        .unwrap_or(8)
        .max(8);
    let _ = writeln!(out, "{:<name_w$}  {:>14}  kind", "counter", "value");
    let _ = writeln!(out, "{}", "-".repeat(name_w + 24));
    for (name, value) in &snap.counters {
        let _ = writeln!(out, "{name:<name_w$}  {value:>14}  counter");
    }
    for (name, value) in &snap.gauges {
        let mode = snap.gauge_modes.get(name).copied().unwrap_or_default();
        let _ = writeln!(
            out,
            "{name:<name_w$}  {value:>14}  gauge ({})",
            mode.label()
        );
    }
    if !snap.histograms.is_empty() {
        let hist_w = snap
            .histograms
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(9)
            .max(9);
        let _ = writeln!(
            out,
            "\n{:<hist_w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
            "histogram", "count", "p50", "p90", "p99", "max"
        );
        let _ = writeln!(out, "{}", "-".repeat(hist_w + 60));
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "{name:<hist_w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max()
            );
        }
    }
    if snap.dropped_events > 0 {
        let per_thread = snap
            .dropped_by_thread
            .iter()
            .map(|(tid, n)| format!("tid {tid}: {n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "\n!! {} events dropped (ring capacity) [{per_thread}]",
            snap.dropped_events
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fig() -> FigureData {
        let mut f = FigureData::new("figX", "Test Figure", "threads", "ops/s/thread");
        f.push_series(Series::new("int", vec![(2.0, 100.0), (4.0, 50.0)]));
        f.push_series(Series::new("float", vec![(2.0, 80.0), (4.0, 40.0)]));
        f
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_fig().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("threads,int,float"));
        assert_eq!(lines.next(), Some("2,100,80"));
        assert_eq!(lines.next(), Some("4,50,40"));
    }

    #[test]
    fn csv_escapes_commas() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn csv_blank_cell_for_missing_point() {
        let mut f = sample_fig();
        f.push_series(Series::new("partial", vec![(2.0, 1.0)]));
        let csv = f.to_csv();
        let row4 = csv.lines().nth(2).unwrap();
        assert_eq!(row4, "4,50,40,");
    }

    #[test]
    fn series_lookup() {
        let f = sample_fig();
        assert_eq!(f.series_by_label("int").unwrap().y_at(4.0), Some(50.0));
        assert!(f.series_by_label("missing").is_none());
        assert_eq!(f.series_by_label("int").unwrap().y_max(), 100.0);
        assert_eq!(f.series_by_label("int").unwrap().y_min(), 50.0);
    }

    #[test]
    fn table_render_contains_values() {
        let t = sample_fig().render_table();
        assert!(t.contains("figX"));
        assert!(t.contains("int"));
        assert!(t.contains("1.000e2"));
    }

    #[test]
    fn ascii_render_has_legend_and_axes() {
        let a = sample_fig().render_ascii(40, 10);
        assert!(a.contains("* = int"));
        assert!(a.contains("o = float"));
        assert!(a.contains("x: threads"));
    }

    #[test]
    fn ascii_render_empty_fig() {
        let f = FigureData::new("e", "Empty", "x", "y");
        assert!(f.render_ascii(10, 5).contains("no data"));
    }

    #[test]
    fn log_x_maps_powers_evenly() {
        let mut f = FigureData::new("l", "Log", "threads", "y").with_log_x();
        f.push_series(Series::new(
            "s",
            vec![(1.0, 1.0), (32.0, 1.0), (1024.0, 1.0)],
        ));
        // column of 32 should be half-way between 1 and 1024 on log scale
        let col_mid = f.x_to_col(32.0, 1.0, 1024.0, 101);
        assert_eq!(col_mid, 50);
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("syncperf_report_test");
        let f = sample_fig();
        f.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("figX.csv")).unwrap();
        assert_eq!(content, f.to_csv());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A second write of the same figure leaves both files alone (same
    /// inode, same mtime); a changed figure is rewritten; a missing
    /// directory is created.
    #[cfg(unix)]
    #[test]
    fn writers_skip_identical_files() {
        use std::os::unix::fs::MetadataExt as _;
        use std::time::{Duration, SystemTime};
        let root = std::env::temp_dir().join(format!("syncperf_write_skip_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let dir = root.join("nested");
        let mut f = sample_fig();
        f.write_csv(&dir).unwrap();
        f.write_svg(&dir).unwrap();
        let paths = [dir.join("figX.csv"), dir.join("figX.svg")];
        // Backdate both files, so a rewrite would show in the mtime
        // however coarse the filesystem's clock is.
        let old = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000_000);
        for p in &paths {
            let file = fs::File::options().write(true).open(p).unwrap();
            file.set_modified(old).unwrap();
        }
        let stamp = |p: &Path| {
            let m = fs::metadata(p).unwrap();
            (m.ino(), m.modified().unwrap())
        };
        let before: Vec<_> = paths.iter().map(|p| stamp(p)).collect();
        f.write_csv(&dir).unwrap();
        f.write_svg(&dir).unwrap();
        let after: Vec<_> = paths.iter().map(|p| stamp(p)).collect();
        assert_eq!(after, before, "identical figure must not be rewritten");
        assert!(after.iter().all(|&(_, mtime)| mtime == old));

        f.series[0].points[0].1 = 123.0;
        f.write_csv(&dir).unwrap();
        f.write_svg(&dir).unwrap();
        for p in &paths {
            assert_ne!(stamp(p).1, old, "{} must be rewritten", p.display());
        }
        assert_eq!(fs::read_to_string(&paths[0]).unwrap(), f.to_csv());
        assert_eq!(
            fs::read_to_string(&paths[1]).unwrap(),
            crate::svg::render_svg(&f, &crate::svg::SvgStyle::default())
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn csv_roundtrip_preserves_data() {
        let fig = sample_fig();
        let parsed = FigureData::from_csv("figX", &fig.to_csv()).unwrap();
        assert_eq!(parsed.x_label, "threads");
        assert_eq!(parsed.series.len(), 2);
        for s in &fig.series {
            let p = parsed.series_by_label(&s.label).unwrap();
            assert_eq!(p.points, s.points, "{}", s.label);
        }
    }

    #[test]
    fn csv_roundtrip_with_missing_cells_and_quoted_labels() {
        let mut fig = FigureData::new("q", "Q", "x,axis", "y");
        fig.push_series(Series::new("a,b", vec![(1.0, 2.0)]));
        fig.push_series(Series::new("plain", vec![(1.0, 3.0), (2.0, 4.0)]));
        let parsed = FigureData::from_csv("q", &fig.to_csv()).unwrap();
        assert_eq!(parsed.x_label, "x,axis");
        assert_eq!(
            parsed.series_by_label("a,b").unwrap().points,
            vec![(1.0, 2.0)]
        );
        assert_eq!(parsed.series_by_label("plain").unwrap().points.len(), 2);
    }

    #[test]
    fn from_csv_rejects_malformed() {
        assert!(FigureData::from_csv("x", "").is_err());
        assert!(FigureData::from_csv(
            "x",
            "t,a
1,2,3
"
        )
        .is_err());
        assert!(FigureData::from_csv(
            "x",
            "t,a
nope,2
"
        )
        .is_err());
    }

    #[test]
    fn fmt_eng_examples() {
        assert_eq!(fmt_eng(0.0), "0");
        assert_eq!(fmt_eng(123_456_789.0), "1.235e8");
    }
}
