//! Bit-level digests of explanations.
//!
//! The digest covers the fields `bench-explain`'s signature covers: both
//! CMIs, the stop flag, and each selected attribute's name,
//! responsibility and weighted flag, with every f64 written as its raw
//! bits, so two digests are equal only for bit-identical explanations.

use std::fmt::Write as _;

use nexus_core::Explanation;
use nexus_serve::wire::ExplanationWire;

/// The digest of one explanation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Digest(String);

impl Digest {
    fn new<'a>(
        initial_cmi: f64,
        explained_cmi: f64,
        stopped: bool,
        attributes: impl Iterator<Item = (&'a str, f64, bool)>,
    ) -> Digest {
        let mut s = String::new();
        let _ = write!(
            s,
            "initial={:016x};explained={:016x};stopped={stopped};",
            initial_cmi.to_bits(),
            explained_cmi.to_bits(),
        );
        for (name, responsibility, weighted) in attributes {
            let _ = write!(
                s,
                "name={name};resp={:016x};weighted={weighted};",
                responsibility.to_bits()
            );
        }
        Digest(s)
    }

    /// Digest of an in-process explanation.
    pub fn of(e: &Explanation) -> Digest {
        Digest::new(
            e.initial_cmi,
            e.explained_cmi,
            e.stopped_by_responsibility,
            e.attributes
                .iter()
                .map(|a| (a.name.as_str(), a.responsibility, a.weighted)),
        )
    }

    /// Digest of a served explanation.
    pub fn of_wire(e: &ExplanationWire) -> Digest {
        Digest::new(
            e.initial_cmi,
            e.explained_cmi,
            e.stopped_by_responsibility,
            e.attributes
                .iter()
                .map(|a| (a.name.as_str(), a.responsibility, a.weighted)),
        )
    }

    /// Digest of the parts of a staged run (selected names with their
    /// responsibilities and weighted flags).
    pub fn of_parts(
        initial_cmi: f64,
        explained_cmi: f64,
        stopped: bool,
        attributes: &[(String, f64, bool)],
    ) -> Digest {
        Digest::new(
            initial_cmi,
            explained_cmi,
            stopped,
            attributes.iter().map(|(n, r, w)| (n.as_str(), *r, *w)),
        )
    }

    /// A digest read back from its [`Digest::as_str`] form.
    pub fn from_stored(s: &str) -> Digest {
        Digest(s.to_string())
    }

    /// The full digest text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// A short FNV-1a hash of the digest, for log lines.
    pub fn short(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.0.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    }
}
