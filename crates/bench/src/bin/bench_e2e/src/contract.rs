//! `BENCHMARK.json`, the one table of workload names, metric names,
//! units, directions and bounds. It is compiled in, so the binary, the
//! driver and `--compare` cannot disagree about any of them.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    pub fn embedded() -> Result<Contract, String> {
        let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            doc.get(key)
                .map(Json::arr)
                .unwrap_or(&[])
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::str)
                            .ok_or_else(|| format!("BENCHMARK.json: a {key} metric lacks {f:?}"))
                    };
                    Ok(MetricDef {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::num),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: doc
                .get("workloads")
                .map(Json::arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|w| w.get("name")?.str().map(str::to_string))
                .collect(),
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }

    pub fn unit(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
            .map_or("", |d| d.unit.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::Kind;
    use crate::workload::Workload;

    #[test]
    fn benchmark_json_names_the_workloads_and_layers_the_code_has() {
        let c = Contract::embedded().expect("BENCHMARK.json parses");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(c.workloads, names);
        assert!(c
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(c
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && !d.higher_is_better));
        for kind in Kind::ALL {
            for suffix in ["calls_per_req", "busy_ns_per_call", "wall_share"] {
                let name = format!("{}.{suffix}", kind.name());
                assert!(
                    c.per_layer.iter().any(|d| d.name == name),
                    "{name} is not listed"
                );
            }
        }
    }
}
