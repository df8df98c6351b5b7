//! Property-based roundtrip tests for the `imci-server` wire layer:
//! the v2 binary row encoding, the v1 text encoding (typed cells +
//! escaping), and the request escape path — over arbitrary [`Value`]
//! rows including backslash/tab/newline strings and non-finite doubles.
//!
//! `Value` equality uses `f64::total_cmp`, so `NaN == NaN` here and
//! plain `prop_assert_eq!` checks exact (bit-level) double roundtrips.

use polardb_imci::common::Value;
use polardb_imci::server::protocol::{
    encode_response_v1, encode_response_v2, escape_request, read_response, read_response_v2,
    unescape_request, Response,
};
use polardb_imci::server::wire;
use polardb_imci::EngineChoice;
use proptest::prelude::*;
use std::io::BufReader;

fn arb_string() -> impl Strategy<Value = String> {
    // Base text spiced with the characters the v1 framing must escape:
    // backslash, tab, newline, carriage return.
    ("[a-z0-9 ]{0,16}", 0u8..16).prop_map(|(mut s, spice)| {
        if spice & 1 != 0 {
            s.push('\\');
        }
        if spice & 2 != 0 {
            s.insert(0, '\t');
        }
        if spice & 4 != 0 {
            s.push('\n');
        }
        if spice & 8 != 0 {
            s.push('\r');
        }
        s
    })
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Double),
        Just(Value::Double(f64::NAN)),
        Just(Value::Double(f64::INFINITY)),
        Just(Value::Double(f64::NEG_INFINITY)),
        Just(Value::Double(-0.0)),
        Just(Value::Double(f64::MIN_POSITIVE)),
        (-100_000i64..100_000).prop_map(Value::Date),
        arb_string().prop_map(Value::Str),
    ]
}

fn rows_response(ncols: usize, names: &[String], cells: &[Value], column_engine: bool) -> Response {
    Response::Rows {
        columns: names[..ncols].to_vec(),
        rows: cells.chunks_exact(ncols).map(|c| c.to_vec()).collect(),
        engine: if column_engine {
            EngineChoice::Column
        } else {
            EngineChoice::Row
        },
    }
}

fn roundtrip_v1(resp: &Response) -> Response {
    let mut buf = Vec::new();
    encode_response_v1(&mut buf, resp);
    read_response(&mut BufReader::new(&buf[..])).unwrap()
}

fn roundtrip_v2(resp: &Response) -> Response {
    let mut buf = Vec::new();
    encode_response_v2(&mut buf, resp);
    read_response_v2(&mut BufReader::new(&buf[..])).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn v2_values_roundtrip(values in prop::collection::vec(arb_value(), 0..24)) {
        let mut buf = Vec::new();
        for v in &values {
            wire::put_value(&mut buf, v);
        }
        let mut r = &buf[..];
        for v in &values {
            prop_assert_eq!(&wire::get_value(&mut r, 1 << 20).unwrap(), v);
        }
        prop_assert!(r.is_empty(), "trailing bytes after decode");
    }

    #[test]
    fn v2_varints_roundtrip(u in any::<i64>()) {
        let mut buf = Vec::new();
        wire::put_uvarint(&mut buf, u as u64);
        prop_assert_eq!(wire::get_uvarint(&mut &buf[..]).unwrap(), u as u64);
        buf.clear();
        wire::put_ivarint(&mut buf, u);
        prop_assert_eq!(wire::get_ivarint(&mut &buf[..]).unwrap(), u);
    }

    #[test]
    fn v2_result_sets_roundtrip(
        ncols in 1usize..6,
        names in prop::collection::vec("[a-z_]{1,10}", 6),
        cells in prop::collection::vec(arb_value(), 0..60),
        column_engine in any::<bool>(),
    ) {
        let resp = rows_response(ncols, &names, &cells, column_engine);
        prop_assert_eq!(roundtrip_v2(&resp), resp);
    }

    #[test]
    fn v1_result_sets_roundtrip(
        ncols in 1usize..6,
        names in prop::collection::vec("[a-z_]{1,10}", 6),
        cells in prop::collection::vec(arb_value(), 0..60),
        column_engine in any::<bool>(),
    ) {
        // The v1 escape/unescape path must survive tabs, newlines and
        // backslashes inside string cells, and non-finite doubles
        // (shipped as hex bit patterns).
        let resp = rows_response(ncols, &names, &cells, column_engine);
        prop_assert_eq!(roundtrip_v1(&resp), resp);
    }

    #[test]
    fn v1_batch_responses_roundtrip(
        affected in prop::collection::vec(0usize..1000, 0..10),
    ) {
        let parts: Vec<Response> =
            affected.iter().map(|&a| Response::Ok { affected: a }).collect();
        let resp = Response::Batch(parts);
        prop_assert_eq!(roundtrip_v1(&resp), resp.clone());
        prop_assert_eq!(roundtrip_v2(&resp), resp);
    }

    #[test]
    fn request_escaping_roundtrips(s in arb_string()) {
        // Client-side escape / server-side unescape is the identity on
        // arbitrary SQL text, and the escaped form is always one line.
        let escaped = escape_request(&s);
        prop_assert!(!escaped.contains('\n'));
        prop_assert!(!escaped.contains('\t'));
        prop_assert_eq!(unescape_request(&escaped), s);
    }

    #[test]
    fn error_responses_roundtrip(msg in arb_string(), kind_idx in 0usize..4) {
        let kind = ["parse", "constraint", "execution", "catalog"][kind_idx];
        let resp = Response::Err { kind: kind.to_string(), msg };
        prop_assert_eq!(roundtrip_v1(&resp), resp.clone());
        prop_assert_eq!(roundtrip_v2(&resp), resp);
    }
}
