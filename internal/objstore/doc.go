// Package objstore implements the storage layer of the stack (Fig 2
// "Storage"; §4.4): a generic object/blob store with read-after-write
// consistency, optimized for a high write rate. It stands in for
// HDFS/S3/GCS and serves the same roles as in the paper:
//
//   - long-term archival of raw streams (RawLogWriter appends row
//     batches of schema-bound cells, the Avro stand-in; Append is its map
//     edge) compacted into columnar archive files (Compactor, the Parquet
//     stand-in: raw payloads decoded into typed columns, EncodeColumnar
//     writing the part from them) that the batch/SQL layers and Kappa+
//     backfill read back through ArchiveReader — DecodeColumns decodes the
//     requested columns of a part straight into typed vectors
//     (record.Vector), and no layer boxes them into records;
//   - Flink checkpoint backend (internal/flow writes checkpoint state
//     here);
//   - Pinot segment store: sealed segments upload here (centralized or
//     P2P-async per §4.3.4), failed servers recover from here, and the
//     segment lifecycle manager (internal/olap/lifecycle) uses it as the
//     cold tier — offloaded segments live only here until a query
//     reloads them.
//
// Store is the interface all layers share; MemStore is the in-process
// reference implementation. The "remote" failure modes the experiments
// need — segment-store outages halting ingestion (§4.3.4, E9), archival
// latency, lifecycle degradation with a dead cold tier (E17) — are
// modeled by the FaultStore wrapper with injectable outages and latency.
package objstore
