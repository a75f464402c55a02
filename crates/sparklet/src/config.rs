//! Engine configuration and the compute cost model.

/// CPU cost model for task execution. Costs are dominated by per-*virtual*-
/// byte terms (so benchmark workloads can shrink real record counts without
/// distorting ratios) with small per-record terms on top.
///
/// Baseline figures approximate a ~2.5 GHz Xeon running JVM Spark: record
/// generation ≈ cheap PRNG + object churn, ser/deser ≈ Kryo-class
/// throughput, grouping ≈ hash-map inserts, sorting ≈ TimSort. They are
/// deliberately transport-independent: the paper's datagen/write stages are
/// nearly identical across Vanilla/RDMA/MPI, and only the shuffle-read stage
/// differs (§VII-E) — which is exactly what emerges from charging identical
/// compute everywhere and letting the fabric model differentiate.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Data generation per record (ns).
    pub gen_record_ns: f64,
    /// Data generation per virtual byte (ns/B).
    pub gen_byte_ns: f64,
    /// Narrow transformation (map/filter) per record (ns).
    pub map_record_ns: f64,
    /// Narrow transformation per virtual byte (ns/B).
    pub map_byte_ns: f64,
    /// Serialization per record (ns).
    pub ser_record_ns: f64,
    /// Serialization per virtual byte (ns/B).
    pub ser_byte_ns: f64,
    /// Deserialization per record (ns).
    pub deser_record_ns: f64,
    /// Deserialization per virtual byte (ns/B).
    pub deser_byte_ns: f64,
    /// Hash-aggregation insert per record (ns).
    pub group_record_ns: f64,
    /// Hash-aggregation per virtual byte (ns/B).
    pub group_byte_ns: f64,
    /// Sort cost per record per log2(n) (ns).
    pub sort_record_ns: f64,
    /// Sort cost per virtual byte (ns/B) — JVM comparison-sorting of
    /// 100-byte-class records runs well under memory bandwidth, which is
    /// why the paper's TeraSort shows near-parity across transports while
    /// GroupBy (cheap reduce side) shows 4x.
    pub sort_byte_ns: f64,
    /// Fixed per-task overhead: scheduling, JVM task setup (ns).
    pub task_overhead_ns: u64,
    /// Floating-point work per element of an ML kernel inner loop (ns).
    pub flop_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            gen_record_ns: 50.0,
            gen_byte_ns: 13.0,
            map_record_ns: 20.0,
            map_byte_ns: 0.3,
            ser_record_ns: 30.0,
            ser_byte_ns: 9.0,
            deser_record_ns: 35.0,
            deser_byte_ns: 0.4,
            group_record_ns: 30.0,
            group_byte_ns: 0.2,
            sort_record_ns: 40.0,
            sort_byte_ns: 0.8,
            task_overhead_ns: 2_000_000,
            flop_ns: 1.0,
        }
    }
}

impl CostModel {
    /// Generation cost for `records` records of `bytes` total virtual size.
    pub fn gen(&self, records: u64, bytes: u64) -> u64 {
        (self.gen_record_ns * records as f64 + self.gen_byte_ns * bytes as f64) as u64
    }

    /// Narrow-op cost.
    pub fn map(&self, records: u64, bytes: u64) -> u64 {
        (self.map_record_ns * records as f64 + self.map_byte_ns * bytes as f64) as u64
    }

    /// Serialization cost.
    pub fn ser(&self, records: u64, bytes: u64) -> u64 {
        (self.ser_record_ns * records as f64 + self.ser_byte_ns * bytes as f64) as u64
    }

    /// Deserialization cost.
    pub fn deser(&self, records: u64, bytes: u64) -> u64 {
        (self.deser_record_ns * records as f64 + self.deser_byte_ns * bytes as f64) as u64
    }

    /// Hash-aggregation cost.
    pub fn group(&self, records: u64, bytes: u64) -> u64 {
        (self.group_record_ns * records as f64 + self.group_byte_ns * bytes as f64) as u64
    }

    /// Sort cost for `records` records spanning `bytes` virtual bytes.
    pub fn sort(&self, records: u64, bytes: u64) -> u64 {
        let byte_cost = self.sort_byte_ns * bytes as f64;
        if records < 2 {
            return byte_cost as u64;
        }
        (self.sort_record_ns * records as f64 * (records as f64).log2() + byte_cost) as u64
    }
}

/// Engine configuration (the `spark.*` properties the paper tunes, §VII-C).
#[derive(Debug, Clone, Copy)]
pub struct SparkConf {
    /// Cap on in-flight remote shuffle bytes per reduce task
    /// (`spark.reducer.maxSizeInFlight`, default 48 MiB).
    /// One fetch request targets a fifth of it, as in Spark.
    pub max_bytes_in_flight: u64,
    /// Serve one merged chunk per fetch request (`false` = one chunk per
    /// block, Spark-faithful but quadratic in message count; merged requests
    /// charge per-block protocol CPU instead — see `shuffle`).
    pub merge_chunks_per_request: bool,
    /// Task slots per executor (`spark_executor_cores`; the paper sets this
    /// to the node's hardware thread count).
    pub executor_cores: u32,
    /// RPC request timeout (ns).
    pub request_timeout_ns: u64,
    /// Connection timeout (ns).
    pub connect_timeout_ns: u64,
    /// Per-block fetch retries after the first attempt
    /// (`spark.shuffle.io.maxRetries`-analog; 0 disables retry).
    pub fetch_max_retries: u32,
    /// Base delay before the first fetch retry (ns); doubles per attempt
    /// (`spark.shuffle.io.retryWait`-analog).
    pub fetch_retry_base_ns: u64,
    /// Ceiling on the exponential fetch backoff (ns).
    pub fetch_retry_max_ns: u64,
    /// Progress timeout for one fetch attempt: if no chunk arrives for this
    /// long the attempt is abandoned and the missing blocks re-requested.
    pub fetch_timeout_ns: u64,
    /// Straggler speculation (`spark.speculation`). Off by default:
    /// clean-fabric benchmark timelines stay identical to the
    /// non-speculative engine. The policy's tuning is fixed in
    /// [`scheduler::speculation`](crate::scheduler::speculation).
    pub speculation: bool,
    /// Record tracing spans during the run and export a deterministic
    /// Chrome-trace timeline (virtual-time ticks). Off by default: spans
    /// cost host memory, never virtual time, so enabling it does not
    /// perturb simulated results.
    pub trace_timeline: bool,
    /// Compute cost model.
    pub cost: CostModel,
}

impl Default for SparkConf {
    fn default() -> Self {
        SparkConf {
            max_bytes_in_flight: 48 * 1024 * 1024,
            merge_chunks_per_request: true,
            executor_cores: 4,
            request_timeout_ns: simt::time::secs(120),
            connect_timeout_ns: simt::time::secs(10),
            fetch_max_retries: 2,
            fetch_retry_base_ns: simt::time::millis(100),
            fetch_retry_max_ns: simt::time::secs(5),
            fetch_timeout_ns: simt::time::secs(120),
            speculation: false,
            trace_timeline: false,
            cost: CostModel::default(),
        }
    }
}

impl SparkConf {
    /// Paper §VII-C settings scaled onto a node with `cores` hardware
    /// threads.
    pub fn paper_defaults(cores: u32) -> Self {
        SparkConf { executor_cores: cores, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_monotonically() {
        let m = CostModel::default();
        assert!(m.gen(1000, 1 << 20) > m.gen(10, 1 << 10));
        assert!(m.ser(100, 0) > 0);
        assert!(m.sort(1_000_000, 0) > m.sort(1_000, 0));
        assert_eq!(m.sort(1, 0), 0);
        assert!(m.sort(1, 1 << 20) > 0);
    }

    #[test]
    fn paper_defaults_set_cores() {
        let c = SparkConf::paper_defaults(56);
        assert_eq!(c.executor_cores, 56);
    }
}
