//! Generator-only inputs; the library sees only files, tables and request
//! lines.
//!
//! The lake at rest is the workload's *dataset*: generated from the fixed
//! [`LAKE_SEED`], byte-identical in every run (its hash is printed), like a
//! LakeBench task. `--seed` drives the *traffic* against it: which stored
//! tables the request pool names and in what order, the cells of the
//! unseen tables inline requests carry, and every update cycle (which
//! tables are rewritten and removed, and the text of rewritten and added
//! ones). The quality queries belong to the dataset, so `recall_at_10`,
//! `gold_f1_at_10` and `disk_bytes_per_table` are the same number for
//! every seed and can be gated tightly, and ten runs with ten seeds time
//! one index ten times, not ten indexes once each (README.md, "What
//! `--seed` drives").

use crate::workload::{QuerySource, Scale, Shape, Workload};

/// Seed of every workload's lake (filler tables, embedded search
/// benchmarks, quality queries).
pub const LAKE_SEED: u64 = 14;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tsfm_lake::{
    gen_eurostat_subset, gen_join_search, gen_union_search, JoinSearchConfig, SearchBenchmark,
    UnionSearchConfig, World, WorldConfig,
};
use tsfm_store::{wire, QueryMode};
use tsfm_table::hash::{hash_str, splitmix64};
use tsfm_table::{csv, Table};

/// A query with a known relevant set from one of the embedded search
/// benchmarks.
#[derive(Debug, Clone)]
pub struct GoldQuery {
    pub id: String,
    pub mode: QueryMode,
    /// The marked query column of a join-search query (the paper's
    /// Wiki-Join protocol searches with the key column only).
    pub column: Option<String>,
    pub gold: BTreeSet<String>,
}

/// One update cycle's changes to the lake directory.
#[derive(Debug, Clone, Default)]
pub struct ChurnStep {
    /// Existing ids whose CSV is replaced.
    pub rewrite: Vec<(String, String)>,
    /// New ids.
    pub add: Vec<(String, String)>,
    /// Ids whose CSV is deleted and which are `remove`d from the catalog.
    pub remove: Vec<String>,
}

pub struct Inputs {
    world: World,
    shape: Shape,
    seed: u64,
    /// The lake: `(table id, CSV text)` in ascending id order; written as
    /// `<id>.csv`.
    pub lake: Vec<(String, String)>,
    /// Filler ids the churn cycles may rewrite or remove.
    pub churnable: Vec<String>,
    /// Filler ids no cycle touches: the fixed recall query set, and the
    /// ids background load queries while the catalog changes.
    pub protected: Vec<String>,
    pub gold: Vec<GoldQuery>,
    /// Tables of the embedded subset-search benchmark (bases and their
    /// row/column-subset variants): the recall query set of subset mode,
    /// where a random filler table would overlap nothing.
    pub subset_ids: Vec<String>,
    /// Unseen query tables `(query id, CSV text)` the serve windows'
    /// inline requests carry (from `--seed`).
    pub inline: Vec<(String, String)>,
    /// Unseen query tables of the quality pass (part of the dataset).
    pub quality_inline: Vec<(String, String)>,
    pub lake_hash: u64,
    pub csv_bytes: u64,
    filler_total: usize,
}

fn filler_table(world: &World, shape: Shape, id: &str, rng: &mut StdRng) -> Table {
    match shape {
        Shape::Short => world.random_table(id, rng.gen_range(20..80), rng).table,
        Shape::Narrow => {
            let topic = rng.gen_range(0..world.cfg.topics);
            let mut ds = world.domains_of_topic(topic);
            ds.shuffle(rng);
            ds.truncate(2);
            world.make_table(id, topic, &ds, rng.gen_range(20..60), rng).table
        }
        Shape::Long => {
            let topic = rng.gen_range(0..world.cfg.topics);
            let mut ds = world.domains_of_topic(topic);
            ds.shuffle(rng);
            let own = rng.gen_range(4..=ds.len().min(6));
            ds.truncate(own);
            // Up to two measures from anywhere in the world: 4–8 columns.
            let nums = world.numeric_domains();
            for _ in 0..rng.gen_range(0..=2) {
                ds.push(nums[rng.gen_range(0..nums.len())]);
            }
            world.make_table(id, topic, &ds, rng.gen_range(200..=400), rng).table
        }
    }
}

fn gold_of(bench: &SearchBenchmark, mode: QueryMode) -> Vec<GoldQuery> {
    bench
        .queries
        .iter()
        .zip(&bench.gold)
        .map(|(&q, rel)| GoldQuery {
            id: bench.tables[q].id.clone(),
            mode,
            column: bench.key_column.as_ref().map(|k| bench.tables[q].column(k[q]).name.clone()),
            gold: rel.iter().map(|&i| bench.tables[i].id.clone()).collect(),
        })
        .collect()
}

impl Inputs {
    /// The lake from `lake_seed` ([`LAKE_SEED`] in every run; a parameter
    /// so tests can show a second lake runs clean), the traffic from `seed`.
    pub fn generate(workload: &Workload, scale: &Scale, lake_seed: u64, seed: u64) -> Inputs {
        let world = World::generate(WorldConfig::default());
        let mut rng = StdRng::seed_from_u64(splitmix64(lake_seed ^ 0x1a4e));
        let mut tables: Vec<Table> = Vec::new();
        let filler_ids: Vec<String> = (0..scale.filler).map(|i| format!("t{i:05}")).collect();
        for id in &filler_ids {
            tables.push(filler_table(&world, workload.shape, id, &mut rng));
        }

        let join = gen_join_search(
            &world,
            &JoinSearchConfig {
                groups: scale.join_groups,
                distractors: scale.join_distractors,
                seed: splitmix64(lake_seed ^ 0x10),
                ..JoinSearchConfig::default()
            },
        );
        let union = gen_union_search(
            &world,
            "union",
            &UnionSearchConfig {
                clusters: scale.union_clusters,
                cluster_size: 10,
                distractors: scale.union_distractors,
                seed: splitmix64(lake_seed ^ 0x20),
            },
        );
        let subset = gen_eurostat_subset(&world, scale.subset_queries, splitmix64(lake_seed ^ 0x30));
        let mut subset_ids: Vec<String> = subset.tables.iter().map(|t| t.id.clone()).collect();
        subset_ids.sort_unstable();
        subset_ids.truncate(scale.recall_queries);
        let mut gold = Vec::new();
        for (bench, mode) in
            [(join, QueryMode::Join), (union, QueryMode::Union), (subset, QueryMode::Subset)]
        {
            gold.extend(gold_of(&bench, mode));
            tables.extend(bench.tables);
        }

        let mut lake: Vec<(String, String)> =
            tables.iter().map(|t| (t.id.clone(), csv::table_to_csv(t))).collect();
        lake.sort();
        let mut lake_hash = 0u64;
        let mut csv_bytes = 0u64;
        for (id, text) in &lake {
            lake_hash = splitmix64(lake_hash ^ hash_str(id)) ^ hash_str(text);
            csv_bytes += text.len() as u64;
        }

        // Unseen query tables: the shapes (topic, columns, row count) belong
        // to the dataset, so every seed's inline requests cost alike to
        // parse and sketch; the cells come from the caller's generator.
        let shapes: Vec<(usize, Vec<usize>, usize)> = (0..scale.recall_queries)
            .map(|_| {
                let topic = rng.gen_range(0..world.cfg.topics);
                let mut ds = world.domains_of_topic(topic);
                ds.shuffle(&mut rng);
                ds.truncate(rng.gen_range(2..=ds.len().min(6)));
                (topic, ds, rng.gen_range(150..250))
            })
            .collect();
        let unseen = |rng: &mut StdRng| -> Vec<(String, String)> {
            shapes
                .iter()
                .enumerate()
                .map(|(i, (topic, ds, rows))| {
                    let id = format!("q{i:03}");
                    let t = world.make_table(id.clone(), *topic, ds, *rows, rng).table;
                    (id, csv::table_to_csv(&t))
                })
                .collect()
        };
        let quality_inline = unseen(&mut rng);
        let inline = unseen(&mut StdRng::seed_from_u64(splitmix64(seed ^ 0x171e)));

        let n_protected = scale.recall_queries.min(filler_ids.len());
        Inputs {
            world,
            shape: workload.shape,
            seed,
            lake,
            protected: filler_ids[..n_protected].to_vec(),
            churnable: filler_ids[n_protected..].to_vec(),
            gold,
            subset_ids,
            inline,
            quality_inline,
            lake_hash,
            csv_bytes,
            filler_total: scale.filler,
        }
    }

    pub fn csv_of(&self, id: &str) -> Option<&str> {
        self.lake
            .binary_search_by(|(i, _)| i.as_str().cmp(id))
            .ok()
            .map(|i| self.lake[i].1.as_str())
    }

    /// The `cycle`-th update: rewrite 4 % of the filler CSVs, add 1 %,
    /// remove 1 % (at least one each). Deterministic in `(seed, cycle)`
    /// and the cycles before it; `alive` is the still-present churnable
    /// ids and is updated in place.
    pub fn churn_step(&self, cycle: usize, alive: &mut Vec<String>) -> ChurnStep {
        let mut rng = StdRng::seed_from_u64(splitmix64(self.seed ^ 0xc4 ^ ((cycle as u64) << 20)));
        let pct = |p: usize| (self.filler_total * p / 100).max(1);
        let mut step = ChurnStep::default();
        for _ in 0..pct(1).min(alive.len().saturating_sub(1)) {
            step.remove.push(alive.swap_remove(rng.gen_range(0..alive.len())));
        }
        alive.sort_unstable();
        let mut picks: Vec<usize> = (0..alive.len()).collect();
        picks.shuffle(&mut rng);
        for &i in picks.iter().take(pct(4)) {
            let t = filler_table(&self.world, self.shape, &alive[i], &mut rng);
            step.rewrite.push((alive[i].clone(), csv::table_to_csv(&t)));
        }
        for i in 0..pct(1) {
            let id = format!("add{cycle:03}_{i:03}");
            let t = filler_table(&self.world, self.shape, &id, &mut rng);
            step.add.push((id, csv::table_to_csv(&t)));
        }
        step
    }
}

pub fn id_request(mode: QueryMode, id: &str) -> String {
    format!("{{\"mode\":\"{mode}\",\"k\":10,\"id\":\"{}\"}}", wire::escape_json(id))
}

pub fn csv_request(mode: QueryMode, query_id: &str, csv_text: &str) -> String {
    format!(
        "{{\"mode\":\"{mode}\",\"k\":10,\"query_id\":\"{}\",\"csv\":\"{}\"}}",
        wire::escape_json(query_id),
        wire::escape_json(csv_text)
    )
}

/// Restrict a request line to one query column.
fn with_column(line: &str, column: Option<&String>) -> String {
    match column {
        Some(c) => format!("{},\"columns\":[\"{}\"]}}", &line[..line.len() - 1], wire::escape_json(c)),
        None => line.to_string(),
    }
}

/// A request of the quality pass: the line, its mode, the query table's
/// id (for the exact reference), and the gold set when it has one.
pub struct QualityRequest {
    pub line: String,
    pub mode: QueryMode,
    pub query_id: String,
    pub gold: Option<BTreeSet<String>>,
}

impl Inputs {
    /// The serve windows' request pool: `pool` lines cycling through the
    /// workload's mode mix.
    pub fn request_pool(&self, workload: &Workload, pool: usize) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(splitmix64(self.seed ^ 0x9001));
        // By id: a shuffled pass over the lake, so a pool as large as the
        // lake names every table once.
        let mut order: Vec<usize> = (0..self.lake.len()).collect();
        order.shuffle(&mut rng);
        (0..pool)
            .map(|i| {
                let mode = workload.modes[i % workload.modes.len()];
                match workload.source {
                    QuerySource::ById => id_request(mode, &self.lake[order[i % order.len()]].0),
                    QuerySource::InlineCsv => {
                        let (qid, text) = &self.inline[(i / workload.modes.len()) % self.inline.len()];
                        csv_request(mode, qid, text)
                    }
                }
            })
            .collect()
    }

    /// Lines the background connections send while the catalog churns:
    /// only ids no cycle touches.
    pub fn background_pool(&self, workload: &Workload) -> Vec<String> {
        self.protected
            .iter()
            .enumerate()
            .map(|(i, id)| id_request(workload.modes[i % workload.modes.len()], id))
            .collect()
    }

    /// Stored tables used as the recall query set of `mode`: filler no
    /// update cycle touches for join/union, subset-benchmark tables (which
    /// have row-overlapping relatives) for subset.
    pub fn recall_ids(&self, mode: QueryMode) -> &[String] {
        match mode {
            QueryMode::Subset => &self.subset_ids,
            _ => &self.protected,
        }
    }

    /// The fixed recall query set (every mode of the mix) followed by the
    /// gold queries (`gold_queries` per mode).
    pub fn quality_requests(&self, workload: &Workload, scale: &Scale) -> Vec<QualityRequest> {
        let mut out = Vec::new();
        // Every mode, whatever the serve mix: quality is a property of the
        // indexes, and three modes' worth of queries steadies the mean.
        for mode in QueryMode::ALL {
            for id in self.recall_ids(mode) {
                let line = match (workload.source, mode) {
                    (QuerySource::ById, _) => id_request(mode, id),
                    // Join/union: the unseen inline tables stand in for the
                    // stored ones, position by position.
                    (QuerySource::InlineCsv, QueryMode::Join | QueryMode::Union) => continue,
                    (QuerySource::InlineCsv, QueryMode::Subset) => {
                        csv_request(mode, id, self.csv_of(id).unwrap_or_default())
                    }
                };
                out.push(QualityRequest { line, mode, query_id: id.clone(), gold: None });
            }
            if workload.source == QuerySource::InlineCsv && mode != QueryMode::Subset {
                for (qid, text) in &self.quality_inline {
                    out.push(QualityRequest {
                        line: csv_request(mode, qid, text),
                        mode,
                        query_id: qid.clone(),
                        gold: None,
                    });
                }
            }
            for g in self.gold.iter().filter(|g| g.mode == mode).take(scale.gold_queries) {
                let line = match workload.source {
                    QuerySource::ById => id_request(mode, &g.id),
                    // The stored table's own text under its own id, so
                    // the sketch equals the stored one and
                    // `exclude_self` drops it from its own ranking.
                    QuerySource::InlineCsv => {
                        csv_request(mode, &g.id, self.csv_of(&g.id).unwrap_or_default())
                    }
                };
                out.push(QualityRequest {
                    line: with_column(&line, g.column.as_ref()),
                    mode,
                    query_id: g.id.clone(),
                    gold: Some(g.gold.clone()),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{QUICK, WORKLOADS};

    #[test]
    fn the_seed_drives_the_traffic_and_never_the_lake() {
        let w = &WORKLOADS[2];
        let a = Inputs::generate(w, &QUICK, LAKE_SEED, 5);
        let b = Inputs::generate(w, &QUICK, LAKE_SEED, 5);
        let c = Inputs::generate(w, &QUICK, LAKE_SEED, 6);
        assert_eq!(a.lake, b.lake);
        assert_eq!((a.lake_hash, &a.lake, &a.quality_inline), (c.lake_hash, &c.lake, &c.quality_inline));
        assert!(a.lake.windows(2).all(|p| p[0].0 < p[1].0), "ids unique and sorted");
        assert!(a.gold.iter().all(|g| !g.gold.is_empty() && a.csv_of(&g.id).is_some()));
        let lines = |i: &Inputs| i.quality_requests(w, &QUICK).into_iter().map(|q| q.line).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&c), "quality queries belong to the dataset");
        // Traffic: same seed, same requests and churn; another seed, others.
        assert_eq!(a.request_pool(w, 12), b.request_pool(w, 12));
        assert_ne!(a.request_pool(w, 12), c.request_pool(w, 12));
        let step = |i: &Inputs| i.churn_step(0, &mut i.churnable.clone()).add;
        assert_eq!(step(&a), step(&b));
        assert_ne!(step(&a), step(&c));
        // A second lake is another dataset.
        assert_ne!(Inputs::generate(w, &QUICK, LAKE_SEED + 1, 5).lake_hash, a.lake_hash);
    }

    #[test]
    fn churn_never_touches_protected_ids_and_repeats() {
        let w = &WORKLOADS[3];
        let inputs = Inputs::generate(w, &QUICK, LAKE_SEED, 9);
        let run = |inputs: &Inputs| {
            let mut alive = inputs.churnable.clone();
            (0..3).map(|c| inputs.churn_step(c, &mut alive)).collect::<Vec<_>>()
        };
        let (a, b) = (run(&inputs), run(&inputs));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rewrite, y.rewrite);
            assert_eq!(x.add, y.add);
            assert_eq!(x.remove, y.remove);
            assert!(!x.add.is_empty() && !x.remove.is_empty() && !x.rewrite.is_empty());
            for id in x.remove.iter().chain(x.rewrite.iter().map(|(id, _)| id)) {
                assert!(!inputs.protected.contains(id));
            }
        }
        let removed: Vec<&String> = a.iter().flat_map(|s| &s.remove).collect();
        let distinct: BTreeSet<&String> = removed.iter().copied().collect();
        assert_eq!(removed.len(), distinct.len(), "an id is removed once");
    }

    #[test]
    fn request_lines_parse_as_serve_requests() {
        for w in &WORKLOADS {
            let inputs = Inputs::generate(w, &QUICK, LAKE_SEED, 3);
            for line in inputs.request_pool(w, 12) {
                tsfm_store::ServeRequest::parse_line(&line).unwrap();
            }
            for q in inputs.quality_requests(w, &QUICK) {
                let r = tsfm_store::ServeRequest::parse_line(&q.line).unwrap();
                assert_eq!(r.request.mode(), q.mode);
            }
        }
    }
}
