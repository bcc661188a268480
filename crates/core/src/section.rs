//! The opt-in sections of the result documents: one table names each one
//! and says where every document carries it.

use mbp_json::Value;

/// A section a run adds to Listing 1's four when it asks for one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// Windowed telemetry ([`SimConfig::timeseries_window`](crate::SimConfig::timeseries_window)).
    Timeseries,
    /// The misprediction forensic report ([`SimConfig::forensics`](crate::SimConfig::forensics)).
    Forensics,
    /// The phase-sampling report ([`simulate_sampled`](crate::simulate_sampled)).
    Simpoint,
    /// Table-health probes ([`SimConfig::collect_probes`](crate::SimConfig::collect_probes)).
    Introspection,
}

/// Where a document carries a section: `key` in the object `parent`, or at
/// the top level when `parent` is `None`.
#[derive(Clone, Copy, Debug)]
pub struct Place {
    /// The object that holds the section.
    pub parent: Option<&'static str>,
    /// The section's key in that object.
    pub key: &'static str,
}

impl Section {
    /// Every opt-in section, in run-document order: documents render,
    /// `--metrics-out` lifts and `stats-diff` walks them in this order.
    pub const ALL: [Section; 4] = [
        Self::Timeseries,
        Self::Forensics,
        Self::Simpoint,
        Self::Introspection,
    ];

    /// The table: where a run or compare document carries the section, and
    /// where a sweep document carries its summary, if it has one. A
    /// `--metrics-out` file carries each section at its top level, under
    /// its run-document key.
    const fn places(self) -> (Place, Option<Place>) {
        const fn at(parent: Option<&'static str>, key: &'static str) -> Place {
            Place { parent, key }
        }
        match self {
            Self::Timeseries => (at(Some("metrics"), "timeseries"), None),
            Self::Forensics => (at(None, "forensics"), None),
            Self::Simpoint => (at(None, "simpoint"), Some(at(Some("metadata"), "sampling"))),
            Self::Introspection => (at(None, "introspection"), None),
        }
    }

    /// Where a run or compare document carries the section.
    pub const fn place(self) -> Place {
        self.places().0
    }

    /// Where a sweep document carries the section's summary.
    pub const fn sweep_summary(self) -> Option<Place> {
        self.places().1
    }

    /// The section's key in a run document and in a `--metrics-out` file.
    pub const fn name(self) -> &'static str {
        self.place().key
    }

    /// The section in any document: at its run-document place, at the top
    /// level, or as a sweep's summary.
    pub fn find(self, doc: &Value) -> Option<&Value> {
        self.place()
            .get(doc)
            .or_else(|| doc.get(self.name()))
            .or_else(|| self.sweep_summary()?.get(doc))
    }
}

impl Place {
    /// The value at this place in `doc`.
    pub fn get(self, doc: &Value) -> Option<&Value> {
        match self.parent {
            Some(parent) => doc.get(parent)?.get(self.key),
            None => doc.get(self.key),
        }
    }

    /// Sets this place in `doc` to `value`; a document without the parent
    /// object is left as it is.
    pub fn insert(self, doc: &mut Value, value: Value) {
        let holder = match self.parent {
            Some(parent) => doc.as_object_mut().and_then(|d| d.get_mut(parent)),
            None => Some(doc),
        };
        if let Some(obj) = holder.and_then(Value::as_object_mut) {
            obj.insert(self.key, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbp_json::json;

    #[test]
    fn insert_and_find_follow_the_placement() {
        let mut doc = json!({ "metadata": {}, "metrics": {} });
        for section in Section::ALL {
            section
                .place()
                .insert(&mut doc, Value::from(section.name()));
        }
        assert_eq!(
            doc.as_object().map(|o| o.keys().collect::<Vec<_>>()),
            Some(vec![
                "metadata",
                "metrics",
                "forensics",
                "simpoint",
                "introspection"
            ])
        );
        assert_eq!(doc["metrics"]["timeseries"].as_str(), Some("timeseries"));
        for section in Section::ALL {
            assert_eq!(section.find(&doc), Some(&Value::from(section.name())));
        }
        // A `--metrics-out` file keeps every section at the top level, and a
        // sweep keeps the phase-sampling summary in its metadata.
        let flat = json!({ "timeseries": 1 });
        assert_eq!(Section::Timeseries.find(&flat), Some(&Value::from(1)));
        let sweep = json!({ "metadata": { "sampling": 2 } });
        assert_eq!(Section::Simpoint.find(&sweep), Some(&Value::from(2)));
        assert_eq!(Section::Forensics.find(&sweep), None);
    }

    #[test]
    fn insert_needs_the_parent_object() {
        let mut doc = json!({});
        Section::Timeseries.place().insert(&mut doc, Value::from(1));
        assert_eq!(doc, json!({}));
    }
}
