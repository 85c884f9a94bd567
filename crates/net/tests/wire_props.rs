//! Property tests for the wire envelopes: the traced request envelope and
//! paged telemetry snapshots must round-trip for arbitrary values, and the
//! plain message decoder must always reject a traced payload rather than
//! misparse it.

use proptest::prelude::*;
use vss_net::wire::{decode_envelope, decode_message, encode_message, encode_traced, Message};
use vss_telemetry::{HistogramSummary, TelemetrySnapshot};

fn snapshot_from(counters: &[u64], gauges: &[i64], histograms: &[u64]) -> TelemetrySnapshot {
    TelemetrySnapshot {
        counters: counters
            .iter()
            .enumerate()
            .map(|(i, &value)| (format!("test.counter.c{i}"), value))
            .collect(),
        gauges: gauges
            .iter()
            .enumerate()
            .map(|(i, &value)| (format!("test.gauge.g{i}"), value))
            .collect(),
        histograms: histograms
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let summary = HistogramSummary {
                    count: seed,
                    sum: seed.wrapping_mul(3),
                    max: seed.wrapping_add(7),
                    p50: seed / 2,
                    p90: seed / 2 + seed / 4,
                    p99: seed,
                };
                (format!("test.histogram.h{i}_ns"), summary)
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Any `(request_id, parent)` pair wrapped around a unary message
    /// survives the traced envelope round trip (parent 0 meaning "none"),
    /// and the same bytes are rejected by the plain decoder (`0x7e` is not
    /// a message kind).
    #[test]
    fn traced_envelopes_round_trip_for_any_trace_context(
        request_id in any::<u64>(),
        parent in any::<u64>(),
    ) {
        let message = Message::MetricsTextRequest;
        let traced = encode_traced(request_id, Some(parent), &message);
        let envelope = decode_envelope(&traced).expect("traced payload decodes");
        prop_assert_eq!(envelope.request_id, Some(request_id));
        prop_assert_eq!(envelope.parent_span_id, (parent != 0).then_some(parent));
        prop_assert!(matches!(envelope.message, Message::MetricsTextRequest));
        prop_assert!(
            decode_message(&traced).is_err(),
            "the plain decoder must reject the traced marker"
        );
        // Untraced payloads pass through decode_envelope unchanged.
        let plain = encode_message(&message);
        let envelope = decode_envelope(&plain).expect("plain payload decodes");
        prop_assert_eq!(envelope.request_id, None);
        prop_assert_eq!(envelope.parent_span_id, None);
    }

    /// Telemetry snapshots of arbitrary shape and values round-trip through
    /// the StatsPage codec exactly.
    #[test]
    fn stats_snapshots_round_trip(
        counters in proptest::collection::vec(any::<u64>(), 0..8),
        gauges in proptest::collection::vec(any::<i64>(), 0..8),
        histograms in proptest::collection::vec(any::<u64>(), 0..8),
        start in any::<u32>(),
    ) {
        let snapshot = snapshot_from(&counters, &gauges, &histograms);
        let total = (counters.len() + gauges.len() + histograms.len()) as u32;
        let message = Message::StatsPage { total, start, snapshot: snapshot.clone() };
        let decoded = decode_message(&encode_message(&message)).expect("page decodes");
        let Message::StatsPage { total: back_total, start: back_start, snapshot: back } = decoded
        else {
            return Err(TestCaseError::fail("wrong kind"));
        };
        prop_assert_eq!(back_total, total);
        prop_assert_eq!(back_start, start);
        prop_assert_eq!(&back.counters, &snapshot.counters);
        prop_assert_eq!(&back.gauges, &snapshot.gauges);
        prop_assert_eq!(&back.histograms, &snapshot.histograms);
    }
}
