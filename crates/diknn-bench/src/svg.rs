//! Minimal SVG writer for the Figure 7 style visualisations: node dots,
//! per-sector itinerary polylines, the query point and boundary circle.

use diknn_geom::{Point, Rect};
use diknn_workloads::ItineraryHops;
use std::fmt::Write as _;

/// Per-sector stroke colours (8 sectors, colour-blind-tolerant).
const SECTOR_COLORS: [&str; 8] = [
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377", "#bbbbbb", "#222255",
];

/// Render a run visualisation as an SVG document.
///
/// * `field` — world rectangle, mapped to a 800-px-wide canvas.
/// * `nodes` — node positions (grey dots).
/// * `hops` — Q-node hops per `(qid, sector)`, as
///   [`diknn_workloads::GroundTruth::itinerary_hops`] rebuilds them; drawn
///   per sector.
/// * `q`, `radius` — query point and final boundary circle.
pub fn render(field: Rect, nodes: &[Point], hops: &ItineraryHops, q: Point, radius: f64) -> String {
    let scale = 800.0 / field.width();
    let w = 800.0;
    let h = field.height() * scale;
    let tx = |p: Point| (p.x - field.min_x) * scale;
    // SVG's y axis points down; flip so the map reads like the field.
    let ty = |p: Point| h - (p.y - field.min_y) * scale;

    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">"#
    );
    let _ = writeln!(s, r##"<rect width="{w}" height="{h}" fill="#fcfcf8"/>"##);

    // Boundary circle.
    let _ = writeln!(
        s,
        r##"<circle cx="{:.1}" cy="{:.1}" r="{:.1}" fill="none" stroke="#999" stroke-dasharray="6 4"/>"##,
        tx(q),
        ty(q),
        radius * scale
    );

    // Nodes.
    for &p in nodes {
        let _ = writeln!(
            s,
            r##"<circle cx="{:.1}" cy="{:.1}" r="2" fill="#b0b0b0"/>"##,
            tx(p),
            ty(p)
        );
    }

    // Itinerary hops, one polyline segment per hop, coloured by sector.
    for (&(_, sector), list) in hops {
        let color = SECTOR_COLORS[sector as usize % SECTOR_COLORS.len()];
        for &(from, to, _) in list {
            let _ = writeln!(
                s,
                r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="{color}" stroke-width="1.6"/>"#,
                tx(from),
                ty(from),
                tx(to),
                ty(to)
            );
            let _ = writeln!(
                s,
                r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{color}"/>"#,
                tx(to),
                ty(to)
            );
        }
    }

    // Query point.
    let _ = writeln!(
        s,
        r##"<circle cx="{:.1}" cy="{:.1}" r="5" fill="#cc0000"/>"##,
        tx(q),
        ty(q)
    );
    let _ = writeln!(
        s,
        r##"<text x="{:.1}" y="{:.1}" font-size="14" fill="#cc0000">q</text>"##,
        tx(q) + 8.0,
        ty(q) - 8.0
    );
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_wellformed_svg() {
        let field = Rect::new(0.0, 0.0, 100.0, 100.0);
        let nodes = vec![Point::new(10.0, 10.0), Point::new(90.0, 90.0)];
        let hops = ItineraryHops::from([(
            (0, 3),
            vec![(Point::new(50.0, 50.0), Point::new(60.0, 55.0), 12.0)],
        )]);
        let svg = render(field, &nodes, &hops, Point::new(50.0, 50.0), 30.0);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<circle").count(), 1 + 2 + 1 + 1); // boundary + nodes + hop + q
        assert!(svg.contains(SECTOR_COLORS[3]));
        // y axis flipped: node at y=10 lands near the bottom (y≈720).
        assert!(svg.contains(r#"cy="720.0""#));
    }
}
