//! Canonical, versioned wire format for [`ObsSnapshot`]s.
//!
//! A [`WireSnapshot`] is the serializable, owned projection of an
//! [`ObsSnapshot`]'s aggregate state: the span tree with exact call
//! counts and nanosecond totals, monotonic counters, gauges, and
//! histograms. The flat event log is deliberately *not* part of the
//! wire format — it is bounded but large, non-deterministic, and
//! already has a dedicated exporter (the Chrome-trace path in
//! `jcr_bench`); the aggregate tree is what differential profiling
//! compares.
//!
//! The document is rendered and parsed by the workspace's one JSON
//! codec, [`crate::json`]: `BTreeMap`-sorted object keys, two-space
//! indentation, a trailing newline, bounded nesting, no external
//! crates. On top of those, three rules make the format *exact* rather
//! than approximate:
//!
//! * every `u64`/`u128` quantity (counts, nanosecond totals, bucket
//!   masses, histogram sums) is a **decimal string**, never a JSON
//!   number — JSON numbers are f64s and lose integers above 2⁵³;
//! * gauges are stored as the **raw bit pattern** of their `f64`,
//!   rendered as 16 hex digits exactly like the bench checksums, so
//!   equality on the wire is bit equality;
//! * histogram buckets and child lists use compact space-separated
//!   encodings (`"4:2 11:1"`, `"1 2 3"`) with ascending indices.
//!
//! The span tree is **canonicalized** on conversion: children are
//! sorted by name and nodes renumbered in DFS order. Because the
//! aggregate tree keys children by `parent → name`, the canonical form
//! is unique, which gives two properties for free: `render` is a pure
//! function of the recorded state (serialize → parse → serialize is
//! byte-identical), and snapshot merge order cannot leak into the
//! serialized artifact (absorbing A then B equals B then A on the
//! wire).
//!
//! The format is versioned by the top-level `"schema"` field; the
//! parser rejects any version other than [`SCHEMA`] so a future format
//! change fails loudly instead of mis-reading old artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::{Histogram, ObsSnapshot, Unit, NBUCKETS};
use crate::json::{Json, MAX_DEPTH};

/// Wire format version; bump on any change to the rendered schema.
pub const SCHEMA: u64 = 1;

/// One span-tree node on the wire. Node 0 is the synthetic root
/// (named `""`); children are canonically ordered by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireNode {
    /// Span name (the root's is `""`).
    pub name: String,
    /// Child node indices, sorted by child name.
    pub children: Vec<usize>,
    /// Completed entries into this span.
    pub count: u64,
    /// Total wall time spent inside, nanoseconds.
    pub total_nanos: u64,
    /// Wall time attributed to direct children, nanoseconds.
    pub child_nanos: u64,
}

impl WireNode {
    /// Wall time not attributed to any child span, nanoseconds.
    pub fn self_nanos(&self) -> u64 {
        self.total_nanos.saturating_sub(self.child_nanos)
    }
}

/// One histogram on the wire: sparse non-zero log₂ buckets plus the
/// exact count/sum/min/max the live [`Histogram`] tracked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireHistogram {
    /// What the recorded values measure.
    pub unit: Unit,
    /// Non-zero buckets, `bucket index → observation count`.
    pub buckets: BTreeMap<usize, u64>,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of recorded observations.
    pub sum: u128,
    /// Smallest recorded observation (0 when empty).
    pub min: u64,
    /// Largest recorded observation (0 when empty).
    pub max: u64,
}

impl WireHistogram {
    /// Projects a live histogram onto the wire.
    pub fn from_histogram(h: &Histogram) -> Self {
        WireHistogram {
            unit: h.unit(),
            buckets: h
                .buckets()
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect(),
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
        }
    }

    /// Rebuilds a live histogram (e.g. to reuse [`Histogram::quantile`]
    /// on a deserialized snapshot), re-validating the invariants.
    pub fn to_histogram(&self) -> Result<Histogram, String> {
        let mut buckets = [0u64; NBUCKETS];
        for (&i, &c) in &self.buckets {
            if i >= NBUCKETS {
                return Err(format!("bucket index {i} out of range"));
            }
            buckets[i] = c;
        }
        Histogram::from_parts(self.unit, buckets, self.count, self.sum, self.min, self.max)
    }
}

/// The canonical serializable form of an [`ObsSnapshot`]'s aggregate
/// state. `==` on two `WireSnapshot`s is the deterministic
/// deep-equality check: exact span counts and nanosecond totals,
/// counters, gauge *bit patterns*, and full histogram contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Format version ([`SCHEMA`]).
    pub schema: u64,
    /// Free-form provenance (worker width, artifact kind, …); merged
    /// into the document under `"meta"` and compared like everything
    /// else.
    pub meta: BTreeMap<String, String>,
    /// Canonically ordered span tree; node 0 is the synthetic root.
    pub nodes: Vec<WireNode>,
    /// Spans that completed after the event log filled up.
    pub dropped_events: u64,
    /// Named monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Named gauges, stored as `f64::to_bits`.
    pub gauges: BTreeMap<String, u64>,
    /// Named histograms.
    pub histograms: BTreeMap<String, WireHistogram>,
}

/// Copies `src_node`'s subtree into `nodes` with children sorted by
/// name and DFS numbering, returning the new index.
fn copy_canonical(snap: &ObsSnapshot, src_node: usize, nodes: &mut Vec<WireNode>) -> usize {
    let src = &snap.nodes[src_node];
    let idx = nodes.len();
    nodes.push(WireNode {
        name: src.name.to_string(),
        children: Vec::with_capacity(src.children.len()),
        count: src.count,
        total_nanos: src.total_nanos,
        child_nanos: src.child_nanos,
    });
    let mut kids = src.children.clone();
    kids.sort_by_key(|&c| snap.nodes[c].name);
    for c in kids {
        let ci = copy_canonical(snap, c, nodes);
        nodes[idx].children.push(ci);
    }
    idx
}

impl WireSnapshot {
    /// Projects a snapshot onto the wire with empty `meta`; callers add
    /// provenance (e.g. `"workers"`) before rendering.
    pub fn from_snapshot(snap: &ObsSnapshot) -> Self {
        let mut nodes = Vec::with_capacity(snap.nodes.len());
        copy_canonical(snap, 0, &mut nodes);
        WireSnapshot {
            schema: SCHEMA,
            meta: BTreeMap::new(),
            nodes,
            dropped_events: snap.dropped_events,
            counters: snap
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: snap
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v.to_bits()))
                .collect(),
            histograms: snap
                .histograms
                .iter()
                .map(|(&k, h)| (k.to_string(), WireHistogram::from_histogram(h)))
                .collect(),
        }
    }

    /// The named gauge, decoded back to `f64`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).map(|&bits| f64::from_bits(bits))
    }

    /// Total wall time recorded at the root's direct children (the
    /// top-level spans), nanoseconds.
    pub fn total_span_nanos(&self) -> u64 {
        self.nodes[0]
            .children
            .iter()
            .map(|&c| self.nodes[c].total_nanos)
            .sum()
    }

    /// The deterministic shape string — byte-identical to
    /// [`ObsSnapshot::shape`] on the snapshot this was projected from.
    pub fn shape(&self) -> String {
        let mut out = String::new();
        self.shape_node(0, 0, &mut out);
        for (name, by) in &self.counters {
            let _ = writeln!(out, "counter {name} = {by}");
        }
        for (name, hist) in &self.histograms {
            if hist.unit == Unit::Count {
                let _ = write!(out, "hist {name} n={} sum={}", hist.count, hist.sum);
                for (&i, &c) in &hist.buckets {
                    let _ = write!(out, " b{i}:{c}");
                }
                let _ = writeln!(out);
            }
        }
        out
    }

    fn shape_node(&self, node: usize, depth: usize, out: &mut String) {
        let n = &self.nodes[node];
        let label = if n.name.is_empty() { "<root>" } else { &n.name };
        let _ = writeln!(
            out,
            "{:indent$}{label} x{}",
            "",
            n.count,
            indent = depth * 2
        );
        for &c in &n.children {
            self.shape_node(c, depth + 1, out);
        }
    }

    /// Renders the canonical document. Serialize → [`WireSnapshot::parse`]
    /// → serialize is byte-identical.
    pub fn render(&self) -> String {
        let nodes = self.nodes.iter().map(|n| {
            Json::obj([
                ("child_ns", text(n.child_nanos)),
                ("children", text(spaced(&n.children))),
                ("count", text(n.count)),
                ("name", text(&n.name)),
                ("total_ns", text(n.total_nanos)),
            ])
        });
        let histograms = self.histograms.iter().map(|(name, h)| {
            let buckets = spaced(h.buckets.iter().map(|(i, c)| format!("{i}:{c}")));
            let hist = Json::obj([
                ("buckets", text(buckets)),
                ("count", text(h.count)),
                ("max", text(h.max)),
                ("min", text(h.min)),
                ("sum", text(h.sum)),
                ("unit", text(h.unit.name())),
            ]);
            (name.clone(), hist)
        });
        Json::obj([
            ("counters", string_obj(&self.counters, u64::to_string)),
            ("dropped_events", text(self.dropped_events)),
            ("gauges", string_obj(&self.gauges, |v| format!("{v:016x}"))),
            ("histograms", Json::Obj(histograms.collect())),
            ("meta", string_obj(&self.meta, String::clone)),
            ("nodes", Json::Arr(nodes.collect())),
            ("schema", Json::Num(self.schema as f64)),
        ])
        .render()
    }

    /// Parses a canonical document, validating the schema version and
    /// every structural invariant: the span list is a tree rooted at
    /// node 0 whose child indices exceed their parent's (so no cycle or
    /// shared subtree can make a walk diverge) and whose depth is at most
    /// [`MAX_DEPTH`]; bucket mass equals the histogram count; units are
    /// known.
    pub fn parse(text: &str) -> Result<WireSnapshot, String> {
        let top = Json::parse(text)?;
        let schema = match field(&top, "schema")?.as_f64() {
            Some(s) if s == SCHEMA as f64 => SCHEMA,
            Some(s) => return Err(format!("unsupported snapshot schema {s} (want {SCHEMA})")),
            None => return Err("schema: expected number".to_string()),
        };
        let counters = string_map(&top, "counters", |v| parse_u64(v, "counter"))?;
        let gauges = string_map(&top, "gauges", |v| match u64::from_str_radix(v, 16) {
            Ok(bits) if v.len() == 16 && v.bytes().all(|b| b.is_ascii_hexdigit()) => Ok(bits),
            _ => Err(format!("want 16 hex digits, got {v:?}")),
        })?;
        let meta = string_map(&top, "meta", |v| Ok(v.to_string()))?;
        let dropped_events = u64_field(&top, "dropped_events")?;
        let mut histograms = BTreeMap::new();
        for (name, h) in obj_field(&top, "histograms")? {
            let unit = match str_field(h, "unit")? {
                "count" => Unit::Count,
                "nanos" => Unit::Nanos,
                other => return Err(format!("histogram {name}: unknown unit {other:?}")),
            };
            let mut buckets = BTreeMap::new();
            for pair in str_field(h, "buckets")?
                .split(' ')
                .filter(|p| !p.is_empty())
            {
                let (i, c) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("histogram {name}: bad bucket {pair:?}"))?;
                let i: usize = i
                    .parse()
                    .map_err(|e| format!("histogram {name}: bad bucket index {i:?}: {e}"))?;
                if i >= NBUCKETS {
                    return Err(format!("histogram {name}: bucket index {i} out of range"));
                }
                if buckets.insert(i, parse_u64(c, "bucket count")?).is_some() {
                    return Err(format!("histogram {name}: duplicate bucket {i}"));
                }
            }
            let wh = WireHistogram {
                unit,
                buckets,
                count: u64_field(h, "count")?,
                sum: str_field(h, "sum")?
                    .parse::<u128>()
                    .map_err(|e| format!("histogram {name}: bad sum: {e}"))?,
                min: u64_field(h, "min")?,
                max: u64_field(h, "max")?,
            };
            // from_parts re-checks mass == count and min ≤ max.
            wh.to_histogram()
                .map_err(|e| format!("histogram {name}: {e}"))?;
            histograms.insert(name.clone(), wh);
        }
        let mut nodes = Vec::new();
        for (i, n) in field(&top, "nodes")?
            .as_arr()
            .ok_or("nodes: expected array")?
            .iter()
            .enumerate()
        {
            let children = str_field(n, "children")?
                .split(' ')
                .filter(|c| !c.is_empty())
                .map(|c| {
                    c.parse()
                        .map_err(|e| format!("node {i}: bad child index {c:?}: {e}"))
                })
                .collect::<Result<_, String>>()?;
            nodes.push(WireNode {
                name: str_field(n, "name")?.to_string(),
                children,
                count: u64_field(n, "count")?,
                total_nanos: u64_field(n, "total_ns")?,
                child_nanos: u64_field(n, "child_ns")?,
            });
        }
        if nodes.first().is_none_or(|root| !root.name.is_empty()) {
            return Err("node 0 must be the unnamed root".to_string());
        }
        // Children follow their parent, so one pass in index order sees
        // every parent's depth before its children's.
        let mut depth = vec![None; nodes.len()];
        depth[0] = Some(0);
        for (i, n) in nodes.iter().enumerate() {
            let d = depth[i].ok_or_else(|| format!("node {i} is not a child of any node"))?;
            for &c in &n.children {
                if c <= i || c >= nodes.len() {
                    let range = format!("{}..{}", i + 1, nodes.len());
                    return Err(format!("node {i}: child index {c} out of range {range}"));
                }
                if depth[c].replace(d + 1).is_some() {
                    return Err(format!("node {c} is listed as a child twice"));
                }
                if d + 1 > MAX_DEPTH {
                    return Err(format!("span tree deeper than {MAX_DEPTH} at node {c}"));
                }
            }
        }
        Ok(WireSnapshot {
            schema,
            meta,
            nodes,
            dropped_events,
            counters,
            gauges,
            histograms,
        })
    }
}

fn text(v: impl ToString) -> Json {
    Json::Str(v.to_string())
}

/// Space-separated list (`"1 2 3"`, `"4:2 11:1"`).
fn spaced<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|t| t.to_string()).collect();
    items.join(" ")
}

/// A flat `string → string` object, each value rendered by `render`.
fn string_obj<V>(map: &BTreeMap<String, V>, render: impl Fn(&V) -> String) -> Json {
    Json::Obj(
        map.iter()
            .map(|(k, v)| (k.clone(), text(render(v))))
            .collect(),
    )
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn obj_field<'a>(obj: &'a Json, key: &str) -> Result<&'a BTreeMap<String, Json>, String> {
    let map = field(obj, key)?.as_obj();
    map.ok_or_else(|| format!("{key}: expected object"))
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    let s = field(obj, key)?.as_str();
    s.ok_or_else(|| format!("{key}: expected string"))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    parse_u64(str_field(obj, key)?, key)
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("bad {what} {s:?}: {e}"))
}

/// Decodes the flat `string → string` object at `key`, value by value.
fn string_map<V>(
    obj: &Json,
    key: &str,
    decode: impl Fn(&str) -> Result<V, String>,
) -> Result<BTreeMap<String, V>, String> {
    let decode_entry = |(k, v): (&String, &Json)| {
        let s = v.as_str().ok_or("expected string".to_string());
        let value = s.and_then(&decode).map_err(|e| format!("{key}.{k}: {e}"))?;
        Ok((k.clone(), value))
    };
    obj_field(obj, key)?.iter().map(decode_entry).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverContext;

    fn sample_snapshot() -> ObsSnapshot {
        let ctx = SolverContext::default();
        {
            let _a = ctx.span("alpha");
            {
                let _b = ctx.span("beta");
            }
            {
                let _b = ctx.span("beta");
            }
        }
        {
            let _c = ctx.span("gamma");
        }
        ctx.obs().add_counter("widgets", 3);
        ctx.obs().set_gauge("fill", 0.75);
        ctx.obs().record("sizes", Unit::Count, 8);
        ctx.obs().record("sizes", Unit::Count, 0);
        ctx.obs().record("lat", Unit::Nanos, 1_000_000);
        ctx.obs_snapshot()
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let mut wire = WireSnapshot::from_snapshot(&sample_snapshot());
        wire.meta.insert("workers".to_string(), "2".to_string());
        let text = wire.render();
        let parsed = WireSnapshot::parse(&text).expect("parse canonical render");
        assert_eq!(parsed, wire);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn shape_matches_obs_snapshot_shape() {
        let snap = sample_snapshot();
        assert_eq!(WireSnapshot::from_snapshot(&snap).shape(), snap.shape());
    }

    #[test]
    fn gauges_survive_as_exact_bits() {
        let snap = sample_snapshot();
        let wire = WireSnapshot::from_snapshot(&snap);
        let text = wire.render();
        let parsed = WireSnapshot::parse(&text).unwrap();
        assert_eq!(parsed.gauge("fill"), Some(0.75));
        assert_eq!(parsed.gauges["fill"], 0.75f64.to_bits());
    }

    #[test]
    fn parser_rejects_wrong_schema_and_corruption() {
        let wire = WireSnapshot::from_snapshot(&sample_snapshot());
        let text = wire.render();
        let wrong = text.replace("\"schema\": 1", "\"schema\": 2");
        assert!(WireSnapshot::parse(&wrong)
            .unwrap_err()
            .contains("unsupported snapshot schema"));
        let truncated = &text[..text.len() / 2];
        assert!(WireSnapshot::parse(truncated).is_err());
        // Corrupt a histogram count so bucket mass no longer matches.
        let corrupt = text.replace("\"count\": \"2\"", "\"count\": \"3\"");
        assert!(WireSnapshot::parse(&corrupt).is_err());
    }

    #[test]
    fn parser_rejects_span_lists_that_are_not_trees() {
        // Sample tree: root 0 → alpha 1 → beta 2, and root 0 → gamma 3.
        let wire = WireSnapshot::from_snapshot(&sample_snapshot());
        let names: Vec<&str> = wire.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["", "alpha", "beta", "gamma"]);
        let broken = |edit: fn(&mut Vec<WireNode>)| {
            let mut w = wire.clone();
            edit(&mut w.nodes);
            WireSnapshot::parse(&w.render()).unwrap_err()
        };
        let self_loop = broken(|n| n[1].children.push(1));
        assert!(
            self_loop.contains("child index 1 out of range"),
            "{self_loop}"
        );
        let back_edge = broken(|n| n[2].children.push(1));
        assert!(
            back_edge.contains("child index 1 out of range"),
            "{back_edge}"
        );
        let two_parents = broken(|n| n[0].children.push(2));
        assert!(
            two_parents.contains("node 2 is listed as a child twice"),
            "{two_parents}"
        );
        let orphan = broken(|n| n[1].children.clear());
        assert!(orphan.contains("node 2 is not a child"), "{orphan}");
        let root_child = broken(|n| n[3].children.push(0));
        assert!(root_child.contains("child index 0"), "{root_child}");
    }

    #[test]
    fn parser_bounds_span_tree_depth() {
        let chain = |len: usize| {
            let mut w = WireSnapshot::from_snapshot(&SolverContext::default().obs_snapshot());
            w.nodes = (0..len)
                .map(|i| WireNode {
                    name: if i == 0 {
                        String::new()
                    } else {
                        format!("s{i}")
                    },
                    children: if i + 1 < len { vec![i + 1] } else { vec![] },
                    count: 1,
                    total_nanos: 0,
                    child_nanos: 0,
                })
                .collect();
            WireSnapshot::parse(&w.render())
        };
        assert!(chain(MAX_DEPTH + 1).is_ok());
        let err = chain(MAX_DEPTH + 2).unwrap_err();
        assert!(err.contains("span tree deeper than"), "{err}");
    }

    #[test]
    fn canonical_order_hides_merge_order() {
        let build = |first: &'static str, second: &'static str| {
            let ctx = SolverContext::default();
            {
                let _s = ctx.span(first);
            }
            {
                let _s = ctx.span(second);
            }
            ctx.obs_snapshot()
        };
        let ab = build("a", "b");
        let ba = build("b", "a");
        // Different first-entry orders, same canonical node layout.
        let names = |w: &WireSnapshot| w.nodes.iter().map(|n| n.name.clone()).collect::<Vec<_>>();
        assert_eq!(
            names(&WireSnapshot::from_snapshot(&ab)),
            names(&WireSnapshot::from_snapshot(&ba))
        );
    }
}
