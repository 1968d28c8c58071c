//! Decoding a `.scim` lowering section is wiring only: it must not
//! build a `Lowering` (no connectivity walk, levelization or interning).
//!
//! This file deliberately contains a single test: `Lowering::builds()`
//! is a process-global counter, and an integration-test binary of its
//! own is the only place a test can read it without interference from
//! concurrently running tests.

use syndcim_ir::artifact::{decode_lowering, encode_lowering};
use syndcim_ir::{ArtifactReader, ArtifactWriter, Lowering, SectionId};
use syndcim_netlist::NetlistBuilder;
use syndcim_pdk::CellLibrary;

#[test]
fn decoding_a_lowering_builds_none() {
    let lib = CellLibrary::syn40();
    let mut b = NetlistBuilder::new("m", &lib);
    let a = b.input("a");
    let q = b.dff(a);
    let y = b.not(q);
    b.output("y", y);
    let low = Lowering::validated(&b.finish(), &lib).unwrap();

    let mut bytes = Vec::new();
    let mut w = ArtifactWriter::new(&mut bytes, 1).unwrap();
    w.write_section(SectionId::Lowering, encode_lowering(&low)).unwrap();
    w.finish().unwrap();
    let reader = ArtifactReader::parse(&bytes).unwrap();

    let builds_before = Lowering::builds();
    let mut r = reader.reader(SectionId::Lowering).unwrap();
    let back = decode_lowering(&mut r, low.symbols()).unwrap();
    r.finish().unwrap();
    assert_eq!(Lowering::builds(), builds_before, "decoding must not re-lower");
    assert_eq!(back.order(), low.order());
}
