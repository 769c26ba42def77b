//! Which layer fake-quantizes the conv's ∂y, as a trace shows it: the
//! pool after the conv on the fast backend, the conv itself on the naive
//! reference, and nobody under the identity scheme. The outputs cannot
//! tell these apart, since fake-quantizing a ∂y twice changes almost no
//! bit. The trace sink is process-wide, so this file holds one test.

use cq_nn::{Conv2d, Layer, MaxPool2d, QuantCtx, QuantPath, Relu, Sequential};
use cq_obs::{ArgValue, Event, EventKind, MemorySink};
use cq_quant::TrainingQuantizer;
use cq_tensor::{init, Backend};
use std::sync::Arc;

/// The `quant`/`fake_quantize` spans among `events`, each as the name of
/// the `nn.layer` span that holds it and its `elems` and `nonzeros` args.
fn quantize_spans(events: &[Event]) -> Vec<(String, u64, Option<u64>)> {
    let span = |e: &Event| match e.kind {
        EventKind::Span { dur_us } => Some((e.ts_us, e.ts_us + dur_us)),
        _ => None,
    };
    let arg = |e: &Event, key: &str| {
        e.args.iter().find_map(|(k, v)| match v {
            ArgValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    };
    events
        .iter()
        .filter(|e| e.cat == "quant" && e.name == "fake_quantize")
        .map(|q| {
            let (start, end) = span(q).expect("a span");
            let layer = events
                .iter()
                .filter(|l| l.cat == "nn.layer" && l.tid == q.tid)
                .find(|l| span(l).is_some_and(|(s, e)| s <= start && end <= e))
                .map_or_else(String::new, |l| l.name.to_string());
            let elems = arg(q, "elems").expect("an elems arg");
            (layer, elems, arg(q, "nonzeros"))
        })
        .collect()
}

#[test]
fn the_pool_quantizes_the_conv_gradient_on_the_fast_backend_only() {
    let sink = Arc::new(MemorySink::new());
    cq_obs::install(sink.clone());
    let x = init::normal(&[2, 3, 8, 8], 0.0, 1.0, 3);
    let g = init::normal(&[2, 4, 4, 4], 0.0, 1.0, 4);
    let elems = 2 * 4 * 8 * 8;

    // The unpooled gradient's nonzeros, from the same layers unfused.
    let ctx = QuantCtx::fp32();
    let y = Conv2d::new("conv1", 3, 4, 3, 1, 1, 11)
        .forward(&x, &ctx)
        .unwrap();
    let mut pool = Sequential::new();
    pool.add(Relu::new()).add(MaxPool2d::new(2));
    pool.forward(&y, &ctx).unwrap();
    let unpooled = pool.backward_to_input(&g, &ctx).unwrap();
    let nonzeros = unpooled.data().iter().filter(|&&v| v != 0.0).count() as u64;
    assert!(0 < nonzeros && nonzeros < elems);

    let hqt = || QuantCtx::new(TrainingQuantizer::zhang2020_hqt()).with_path(QuantPath::Fp32);
    let cases = [
        (
            hqt(),
            vec![("relu+maxpool2d:BW".to_string(), elems, Some(nonzeros))],
        ),
        (
            hqt().with_backend(Backend::Naive),
            vec![("conv1:BW".to_string(), elems, None)],
        ),
        (QuantCtx::fp32(), vec![]),
    ];
    for (ctx, want) in cases {
        let mut model = Sequential::new();
        model
            .add(Conv2d::new("conv1", 3, 4, 3, 1, 1, 11))
            .add(Relu::new())
            .add(MaxPool2d::new(2));
        model.forward(&x, &ctx).unwrap();
        sink.take();
        model.backward(&g, &ctx).unwrap();
        let name = format!("{} on {:?}", ctx.quantizer.name(), ctx.backend);
        assert_eq!(quantize_spans(&sink.take()), want, "{name}");
    }
}
