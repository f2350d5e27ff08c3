//! Stored reference digests.
//!
//! `references.tsv` holds one digest per request of every workload,
//! recorded from plain in-process `Nexus::run_controlled` runs and checked
//! in. Every run compares each explanation with it, so a change that
//! alters explanations fails the benchmark until the file is regenerated
//! on purpose (`nexbench --references > nexbench/references.tsv`).

use crate::digest::Digest;
use crate::{explain, serve};

/// The checked-in reference file: `workload<TAB>request<TAB>digest`
/// lines; lines starting with `#` are comments.
pub const FILE: &str = include_str!("../references.tsv");

/// The stored digest of `request` in `workload`, if the file lists it.
pub fn stored(workload: &str, request: &str) -> Option<Digest> {
    parse(FILE)
        .into_iter()
        .find(|(w, r, _)| *w == workload && *r == request)
        .map(|(_, _, d)| Digest::from_stored(d))
}

/// The `(workload, request, digest)` entries of a reference file.
pub fn parse(file: &str) -> Vec<(&str, &str, &str)> {
    file.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut fields = l.splitn(3, '\t');
            Some((fields.next()?, fields.next()?, fields.next()?))
        })
        .collect()
}

/// Every request of every workload, as `(workload, request)`.
pub fn requests() -> Vec<(&'static str, String)> {
    let mut all = Vec::new();
    for w in [explain::scan(), explain::select()] {
        all.extend(w.items.iter().map(|i| (w.name, i.id.clone())));
    }
    all.extend(serve::variants().iter().map(|v| (serve::NAME, v.label())));
    all
}

/// A fresh reference file, computed by plain in-process runs of every
/// request of every workload.
pub fn record() -> Result<String, String> {
    let mut out = String::from(
        "# Reference digests: plain in-process Nexus::run_controlled runs.\n\
         # Regenerate with `nexbench --references > nexbench/references.tsv`.\n",
    );
    let mut line = |workload: &str, request: &str, d: &Digest| {
        out.push_str(&format!("{workload}\t{request}\t{}\n", d.as_str()));
    };
    for w in [explain::scan(), explain::select()] {
        for (request, d) in explain::reference_digests(&w)? {
            line(w.name, &request, &d);
        }
    }
    for (request, d) in serve::reference_digests()? {
        line(serve::NAME, &request, &d);
    }
    Ok(out)
}
