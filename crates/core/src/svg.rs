//! SVG rendering of [`FigureData`] — the counterpart of the artifact's
//! matplotlib figures (`<testname>.pdf`), dependency-free.
//!
//! Produces a self-contained line chart: axes with tick labels, linear
//! or logarithmic x scale, one polyline + markers per series, and a
//! legend. The palette follows the paper's four-type convention.

use std::fmt::Write as _;

use crate::numfmt;
use crate::report::{FigureData, Series};

/// Chart geometry and styling.
#[derive(Debug, Clone, PartialEq)]
pub struct SvgStyle {
    /// Total width in pixels.
    pub width: u32,
    /// Total height in pixels.
    pub height: u32,
    /// Margin around the plot area (left margin is doubled for y tick
    /// labels).
    pub margin: u32,
    /// Stroke width of series lines.
    pub stroke: f64,
    /// Series colors, cycled.
    pub palette: Vec<&'static str>,
}

impl Default for SvgStyle {
    fn default() -> Self {
        SvgStyle {
            width: 720,
            height: 440,
            margin: 40,
            stroke: 1.8,
            palette: vec![
                "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2",
                "#7f7f7f",
            ],
        }
    }
}

struct Frame {
    x0: f64,
    y0: f64,
    w: f64,
    h: f64,
    xmin: f64,
    xmax: f64,
    ymax: f64,
    log_x: bool,
}

impl Frame {
    fn x_px(&self, x: f64) -> f64 {
        let frac = if self.log_x && self.xmin > 0.0 && self.xmax > self.xmin {
            (x.ln() - self.xmin.ln()) / (self.xmax.ln() - self.xmin.ln())
        } else if self.xmax > self.xmin {
            (x - self.xmin) / (self.xmax - self.xmin)
        } else {
            0.5
        };
        self.x0 + frac.clamp(0.0, 1.0) * self.w
    }

    fn y_px(&self, y: f64) -> f64 {
        let frac = if self.ymax > 0.0 {
            (y / self.ymax).clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.y0 + (1.0 - frac) * self.h
    }
}

/// Renders the figure as a standalone SVG document.
///
/// # Examples
///
/// ```
/// use syncperf_core::{FigureData, Series};
/// use syncperf_core::svg::{render_svg, SvgStyle};
///
/// let mut fig = FigureData::new("demo", "Demo", "threads", "ops/s");
/// fig.push_series(Series::new("int", vec![(2.0, 10.0), (4.0, 5.0)]));
/// let svg = render_svg(&fig, &SvgStyle::default());
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
#[must_use]
pub fn render_svg(fig: &FigureData, style: &SvgStyle) -> String {
    let mut out = String::new();
    let (w, h) = (f64::from(style.width), f64::from(style.height));
    let m = f64::from(style.margin);
    let _ = write!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="11">"#
    );
    let _ = write!(out, r#"<rect width="{w}" height="{h}" fill="white"/>"#);
    let _ = write!(
        out,
        r#"<text x="{}" y="16" text-anchor="middle" font-size="13">{}</text>"#,
        w / 2.0,
        escape(&fig.title)
    );

    let non_empty: Vec<&Series> = fig.series.iter().filter(|s| !s.points.is_empty()).collect();
    if non_empty.is_empty() {
        let _ = write!(
            out,
            r#"<text x="{}" y="{}">no data</text>"#,
            w / 2.0,
            h / 2.0
        );
        out.push_str("</svg>");
        return out;
    }

    let xs: Vec<f64> = non_empty
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.0))
        .collect();
    let ys: Vec<f64> = non_empty
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.1))
        .collect();
    let frame = Frame {
        x0: 2.0 * m,
        y0: m,
        w: w - 3.0 * m,
        h: h - 2.5 * m,
        xmin: xs.iter().copied().fold(f64::MAX, f64::min),
        xmax: xs.iter().copied().fold(f64::MIN, f64::max),
        ymax: ys
            .iter()
            .copied()
            .fold(f64::MIN, f64::max)
            .max(f64::MIN_POSITIVE),
        log_x: fig.log_x,
    };

    // Axes.
    let (bx, by) = (frame.x0, frame.y0 + frame.h);
    let _ = write!(
        out,
        r#"<line x1="{bx}" y1="{}" x2="{bx}" y2="{by}" stroke="black"/>"#,
        frame.y0
    );
    let _ = write!(
        out,
        r#"<line x1="{bx}" y1="{by}" x2="{}" y2="{by}" stroke="black"/>"#,
        frame.x0 + frame.w
    );

    // Y ticks: 5 divisions of [0, ymax].
    for i in 0..=5 {
        let v = frame.ymax * f64::from(i) / 5.0;
        let y = frame.y_px(v);
        let _ = write!(
            out,
            r#"<line x1="{}" y1="{y}" x2="{bx}" y2="{y}" stroke="black"/>"#,
            bx - 4.0
        );
        let _ = write!(
            out,
            r#"<text x="{}" y="{}" text-anchor="end">"#,
            bx - 7.0,
            y + 4.0
        );
        crate::report::push_eng(&mut out, v);
        out.push_str("</text>");
        if i > 0 {
            let _ = write!(
                out,
                r##"<line x1="{bx}" y1="{y}" x2="{}" y2="{y}" stroke="#dddddd"/>"##,
                frame.x0 + frame.w
            );
        }
    }

    // X ticks at data points (log) or 6 even divisions (linear).
    let tick_xs: Vec<f64> = if fig.log_x {
        let mut t = xs.clone();
        t.sort_by(f64::total_cmp);
        t.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        t
    } else {
        (0..=6)
            .map(|i| frame.xmin + (frame.xmax - frame.xmin) * f64::from(i) / 6.0)
            .collect()
    };
    for &tx in &tick_xs {
        let x = frame.x_px(tx);
        let _ = write!(
            out,
            r#"<line x1="{x}" y1="{by}" x2="{x}" y2="{}" stroke="black"/>"#,
            by + 4.0
        );
        let _ = write!(
            out,
            r#"<text x="{x}" y="{}" text-anchor="middle">"#,
            by + 16.0
        );
        if tx == tx.trunc() {
            let _ = write!(out, "{}", tx as i64);
        } else {
            numfmt::push_fixed1(&mut out, tx);
        }
        out.push_str("</text>");
    }

    // Axis labels.
    let _ = write!(
        out,
        r#"<text x="{}" y="{}" text-anchor="middle">{}</text>"#,
        frame.x0 + frame.w / 2.0,
        by + 32.0,
        escape(&fig.x_label)
    );
    let _ = write!(
        out,
        r#"<text x="14" y="{}" text-anchor="middle" transform="rotate(-90 14 {})">{}</text>"#,
        frame.y0 + frame.h / 2.0,
        frame.y0 + frame.h / 2.0,
        escape(&fig.y_label)
    );

    // Series. Each point's `x,y` text is formatted once, into `pts`;
    // the polyline takes all of it and each marker its slice.
    let mut pts = String::new();
    let mut ends: Vec<(usize, usize)> = Vec::new();
    for (i, s) in non_empty.iter().enumerate() {
        let color = style.palette[i % style.palette.len()];
        pts.clear();
        ends.clear();
        for &(x, y) in &s.points {
            if !pts.is_empty() {
                pts.push(' ');
            }
            numfmt::push_fixed1(&mut pts, frame.x_px(x));
            let comma = pts.len();
            pts.push(',');
            numfmt::push_fixed1(&mut pts, frame.y_px(y));
            ends.push((comma, pts.len()));
        }
        let _ = write!(
            out,
            r#"<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{}"/>"#,
            style.stroke
        );
        let mut start = 0;
        for &(comma, end) in &ends {
            out.push_str(r#"<circle cx=""#);
            out.push_str(&pts[start..comma]);
            out.push_str(r#"" cy=""#);
            out.push_str(&pts[comma + 1..end]);
            out.push_str(r#"" r="2.4" fill=""#);
            out.push_str(color);
            out.push_str(r#""/>"#);
            start = end + 1;
        }
        // Legend entry.
        let ly = frame.y0 + 14.0 * i as f64;
        let lx = frame.x0 + frame.w - 120.0;
        let _ = write!(
            out,
            r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="{}"/>"#,
            lx + 18.0,
            style.stroke
        );
        let _ = write!(
            out,
            r#"<text x="{}" y="{}">{}</text>"#,
            lx + 22.0,
            ly + 4.0,
            escape(&s.label)
        );
    }

    out.push_str("</svg>");
    out
}

impl FigureData {
    /// Writes `<id>.svg` into `dir` with default styling, creating
    /// `dir` if needed. A file that already holds these exact bytes is
    /// not rewritten, so its mtime moves only when the figure changed.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be written.
    pub fn write_svg(&self, dir: impl AsRef<std::path::Path>) -> crate::error::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        crate::report::write_if_changed(
            dir.join(format!("{}.svg", self.id)),
            render_svg(self, &SvgStyle::default()),
        )?;
        Ok(())
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Series;

    fn fig() -> FigureData {
        let mut f = FigureData::new("svgtest", "SVG Test <Figure>", "threads", "ops/s");
        f.push_series(Series::new(
            "int",
            vec![(2.0, 100.0), (4.0, 50.0), (8.0, 25.0)],
        ));
        f.push_series(Series::new(
            "double",
            vec![(2.0, 80.0), (4.0, 40.0), (8.0, 20.0)],
        ));
        f
    }

    #[test]
    fn document_structure() {
        let svg = render_svg(&fig(), &SvgStyle::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(
            svg.matches("<polyline").count(),
            2,
            "one polyline per series"
        );
        assert_eq!(svg.matches("<circle").count(), 6, "one marker per point");
    }

    #[test]
    fn title_and_labels_escaped() {
        let svg = render_svg(&fig(), &SvgStyle::default());
        assert!(svg.contains("SVG Test &lt;Figure&gt;"));
        assert!(svg.contains(">threads<"));
        assert!(!svg.contains("<Figure>"));
    }

    #[test]
    fn legend_contains_series_labels() {
        let svg = render_svg(&fig(), &SvgStyle::default());
        assert!(svg.contains(">int<"));
        assert!(svg.contains(">double<"));
    }

    #[test]
    fn log_x_positions_powers_evenly() {
        let mut f = FigureData::new("l", "L", "t", "y").with_log_x();
        f.push_series(Series::new(
            "s",
            vec![(1.0, 1.0), (32.0, 1.0), (1024.0, 1.0)],
        ));
        let svg = render_svg(&f, &SvgStyle::default());
        // Extract the three circle x positions.
        let xs: Vec<f64> = svg
            .match_indices("<circle cx=\"")
            .map(|(i, _)| {
                let rest = &svg[i + 12..];
                rest[..rest.find('"').expect("quote")]
                    .parse::<f64>()
                    .expect("number")
            })
            .collect();
        assert_eq!(xs.len(), 3);
        let gap1 = xs[1] - xs[0];
        let gap2 = xs[2] - xs[1];
        assert!(
            (gap1 - gap2).abs() < 1.0,
            "log spacing must be even: {gap1} vs {gap2}"
        );
    }

    #[test]
    fn empty_figure_yields_placeholder() {
        let f = FigureData::new("e", "Empty", "x", "y");
        let svg = render_svg(&f, &SvgStyle::default());
        assert!(svg.contains("no data"));
    }

    #[test]
    fn write_svg_to_disk() {
        let dir = std::env::temp_dir().join(format!("syncperf_svg_{}", std::process::id()));
        fig().write_svg(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("svgtest.svg")).unwrap();
        assert!(content.starts_with("<svg"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn y_axis_maps_zero_to_baseline_and_max_to_top() {
        let frame = Frame {
            x0: 0.0,
            y0: 10.0,
            w: 100.0,
            h: 100.0,
            xmin: 0.0,
            xmax: 1.0,
            ymax: 50.0,
            log_x: false,
        };
        assert_eq!(frame.y_px(0.0), 110.0);
        assert_eq!(frame.y_px(50.0), 10.0);
        assert_eq!(frame.y_px(25.0), 60.0);
    }
}
