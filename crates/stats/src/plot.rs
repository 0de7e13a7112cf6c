//! Minimal ASCII scatter/line plots for terminal reports.
//!
//! The figure harnesses use these to render latency-vs-load curves
//! (Figures 6 and 9) directly in `repro` output, next to the CSV
//! artifacts.

/// Plot area width in characters.
const WIDTH: usize = 64;
/// Plot area height in characters.
const HEIGHT: usize = 20;

/// One plotted series: marker glyph, name, and `(x, y)` points.
type Series = (char, String, Vec<(f64, f64)>);

/// An ASCII plot of one or more named series on shared axes.
#[derive(Debug, Clone)]
pub struct AsciiPlot {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
}

impl AsciiPlot {
    /// Marker glyphs assigned to series in order.
    const MARKS: [char; 10] = ['*', 'o', '+', 'x', '#', '@', '%', '&', '=', '~'];

    /// Creates an empty plot.
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        AsciiPlot {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
        }
    }

    /// Adds a named series of (x, y) points. Non-finite points are skipped.
    pub fn series(&mut self, name: &str, points: &[(f64, f64)]) -> &mut Self {
        let mark = Self::MARKS[self.series.len() % Self::MARKS.len()];
        let pts: Vec<(f64, f64)> = points
            .iter()
            .copied()
            .filter(|&(x, y)| x.is_finite() && y.is_finite())
            .collect();
        self.series.push((mark, name.to_string(), pts));
        self
    }

    /// Number of series added.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the plot has no series.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Renders the plot.
    pub fn render(&self) -> String {
        let all: Vec<(f64, f64)> = self.series.iter().flat_map(|(_, _, p)| p.clone()).collect();
        if all.is_empty() {
            return format!("{} (no data)\n", self.title);
        }
        let x_min = all.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        let x_max = all.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
        let y_min = 0.0f64.min(all.iter().map(|p| p.1).fold(f64::INFINITY, f64::min));
        let y_max = all.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        let x_span = (x_max - x_min).max(1e-12);
        let y_span = (y_max - y_min).max(1e-12);

        let mut grid = vec![vec![' '; WIDTH]; HEIGHT];
        for (mark, _, pts) in &self.series {
            for &(x, y) in pts {
                let cx = ((x - x_min) / x_span * (WIDTH - 1) as f64).round() as usize;
                let cy = ((y - y_min) / y_span * (HEIGHT - 1) as f64).round() as usize;
                let row = HEIGHT - 1 - cy;
                grid[row][cx.min(WIDTH - 1)] = *mark;
            }
        }

        let mut out = String::new();
        out.push_str(&format!("{} — {}\n", self.title, self.y_label));
        for (i, row) in grid.iter().enumerate() {
            let y_here = y_max - y_span * i as f64 / (HEIGHT - 1) as f64;
            let label = if i % 5 == 0 {
                format!("{y_here:>8.1} |")
            } else {
                format!("{:>8} |", "")
            };
            out.push_str(&label);
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&format!("{:>8} +{}\n", "", "-".repeat(WIDTH)));
        out.push_str(&format!(
            "{:>10}{:<w$.3}{:>.3}   ({})\n",
            "",
            x_min,
            x_max,
            self.x_label,
            w = WIDTH - 4
        ));
        out.push_str(&format!("{:>10}", ""));
        for (mark, name, _) in &self.series {
            out.push_str(&format!("{mark} {name}   "));
        }
        out.push('\n');
        out
    }
}

/// A shaded ASCII heatmap over a 2-D grid of intensities — used for the
/// per-router link-utilization maps in the telemetry reports and the
/// `link_heatmap` example.
///
/// Cells are normalized against the grid maximum and rendered with a
/// ten-step shade ramp, each cell two characters wide so the aspect ratio
/// roughly matches a square tile array.
///
/// # Examples
///
/// ```
/// use ruche_stats::Heatmap;
///
/// let h = Heatmap::new("demo", 2, 2, vec![0.0, 0.25, 0.5, 1.0]).unwrap();
/// let s = h.render();
/// assert!(s.starts_with("demo"));
/// assert!(s.contains("@@"), "hottest cell uses the top shade");
/// ```
#[derive(Debug, Clone)]
pub struct Heatmap {
    title: String,
    cols: usize,
    rows: usize,
    cells: Vec<f64>,
}

impl Heatmap {
    /// Shade ramp from cold to hot.
    const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

    /// Creates a heatmap over `cells`, row-major with `cols` columns.
    /// Returns `None` unless `cells.len() == cols * rows` and both
    /// dimensions are non-zero.
    pub fn new(title: &str, cols: usize, rows: usize, cells: Vec<f64>) -> Option<Self> {
        if cols == 0 || rows == 0 || cells.len() != cols * rows {
            return None;
        }
        Some(Heatmap {
            title: title.to_string(),
            cols,
            rows,
            cells,
        })
    }

    /// Grid width in cells.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Grid height in cells.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The hottest cell value (0 when all cells are non-positive).
    pub fn max(&self) -> f64 {
        self.cells.iter().copied().fold(0.0, f64::max)
    }

    /// Renders the shaded grid with a title line carrying the maximum, so
    /// shades can be read back as absolute values.
    pub fn render(&self) -> String {
        let max = self.max().max(1e-9);
        let mut out = format!("{} (max {:.3})\n", self.title, self.max());
        for y in 0..self.rows {
            out.push_str("  ");
            for x in 0..self.cols {
                let v = (self.cells[y * self.cols + x] / max).clamp(0.0, 1.0);
                let idx = ((v * (Self::SHADES.len() - 1) as f64).round() as usize)
                    .min(Self::SHADES.len() - 1);
                out.push(Self::SHADES[idx]);
                out.push(Self::SHADES[idx]);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_shades_by_relative_intensity() {
        let h = Heatmap::new("t", 3, 1, vec![0.0, 0.5, 1.0]).unwrap();
        let s = h.render();
        assert_eq!(h.cols(), 3);
        assert_eq!(h.rows(), 1);
        assert_eq!(h.max(), 1.0);
        let row = s.lines().nth(1).unwrap();
        assert_eq!(row, "    ++@@", "{s}");
        assert!(s.starts_with("t (max 1.000)"));
    }

    #[test]
    fn heatmap_rejects_shape_mismatch() {
        assert!(Heatmap::new("t", 2, 2, vec![0.0; 3]).is_none());
        assert!(Heatmap::new("t", 0, 2, vec![]).is_none());
    }

    #[test]
    fn all_zero_heatmap_renders_blank() {
        let h = Heatmap::new("t", 2, 1, vec![0.0, 0.0]).unwrap();
        let row = h.render().lines().nth(1).unwrap().to_string();
        assert_eq!(row.trim(), "");
    }

    #[test]
    fn renders_points_and_legend() {
        let mut p = AsciiPlot::new("latency", "offered load", "cycles");
        p.series("mesh", &[(0.0, 5.0), (0.5, 10.0), (1.0, 50.0)]);
        p.series("ruche", &[(0.0, 4.0), (0.5, 6.0), (1.0, 20.0)]);
        let s = p.render();
        assert!(s.contains('*') && s.contains('o'));
        assert!(s.contains("mesh") && s.contains("ruche"));
        assert!(s.contains("offered load"));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_plot_is_graceful() {
        let p = AsciiPlot::new("t", "x", "y");
        assert_eq!(p.render(), "t (no data)\n");
    }

    #[test]
    fn skips_non_finite_points() {
        let mut p = AsciiPlot::new("t", "x", "y");
        p.series("s", &[(0.0, 1.0), (f64::NAN, 2.0), (1.0, f64::INFINITY)]);
        let s = p.render();
        // One mark in the grid (the legend line at the end also shows it).
        let grid_marks: usize = s
            .lines()
            .filter(|l| l.contains('|'))
            .map(|l| l.matches('*').count())
            .sum();
        assert_eq!(grid_marks, 1, "{s}");
    }
}
