//! Golden bytes of every application frame and of the cross-shard table
//! image. Replies from different replicas are matched byte for byte,
//! request digests and state digests are taken over these bytes, and the
//! committed benchmark artifacts follow from them; a codec change that
//! moves one byte fails here first.
//!
//! A frame up to 48 bytes is pinned as hex, a longer one as the SHA-256 of
//! its bytes.

mod frames;

use std::cell::RefCell;
use std::rc::Rc;

use pbft_core::app::{App, NonDet, NullApp};
use pbft_core::types::ClientId;
use pbft_crypto::{Digest, Sha256};
use pbft_state::{PagedState, Section, PAGE_SIZE};
use pbft_xshard::xshard::{XMsg, XReply, XShardApp};

use frames::{for_each_mutation, frames, hex, prepare_ops};

const GOLDEN: &[(&str, &str)] = &[
    (
        "XMsg/0/Prepare",
        "a75853010100000000000000090002000200000001610000000162000000020102000000000000",
    ),
    ("XMsg/1/Decide", "a758530102000000000000000101"),
    ("XMsg/2/Decide", "a758530102000000000000000100"),
    ("XMsg/3/Commit", "a758530103ffffffffffffffff"),
    ("XMsg/4/Abort", "a7585301040000000000000000"),
    ("XMsg/5/QueryDecision", "a7585301050000000000000003"),
    ("XMsg/6/QueryApplied", "a7585301060000000000000004"),
    (
        "XMsg/7/AtomicBatch",
        "a758530107000000000000000500010001000000016b00000009070707070707070707",
    ),
    (
        "XMsg/8/Reshard",
        "sha256:d76919797f46ed698250ce8d7b6a82bb44acbf331c36c0c605fa68416be3b8d0",
    ),
    (
        "XMsg/9/RangeInstall",
        "a75853010900000000000000070002000000000000000000000003010203000000000000100000000000",
    ),
    (
        "XMsg/10/KeyedOp",
        "a75853010a0000000000000008000200000001610000000162000000020909",
    ),
    ("XReply/11/PrepareOk", "a7585301010000000000000001"),
    (
        "XReply/12/PrepareFail",
        "a75853010200000000000000020000000000000009",
    ),
    (
        "XReply/13/Committed",
        "a75853010300000000000000030002000000026f6b00000000",
    ),
    ("XReply/14/Aborted", "a7585301040000000000000004"),
    ("XReply/15/DecisionLogged", "a758530105000000000000000501"),
    ("XReply/16/Decision", "a758530106000000000000000602"),
    ("XReply/17/Decision", "a758530106000000000000000600"),
    ("XReply/18/Applied", "a758530107000000000000000701"),
    (
        "XReply/19/WrongEpoch",
        "sha256:84b121f1538246c66cff37fbb0d4617a213d942fbe3376b498a953216fccdb47",
    ),
    (
        "XReply/20/Resharded",
        "a75853010900000000000000090000000000000003",
    ),
    ("VoteOp/21/CreateElection", "01426f6172642032303236"),
    ("VoteOp/22/CastVote", "020000000000000003616c696365"),
    ("VoteOp/23/Tally", "030000000000000003"),
    ("VoteOp/24/ListElections", "04"),
    ("VoteOp/25/MyVote", "050000000000000001"),
    ("VoteOp/26/Certify", "060000000000000002020000000100000003"),
    (
        "CertifyReply/27/reply",
        "sha256:df847bfc14d2460ccea3cff26ce952816479d5b38b568d28c5431f0746eecc5c",
    ),
    ("Outcome/28/Done", "00"),
    ("Outcome/29/Affected", "010000000000000007"),
    (
        "Outcome/30/Rows",
        "sha256:a7835b770b09bc88f7df24c1321c156c7ca511312a3700ab3043eda0a856c65e",
    ),
    (
        "Outcome/31/Error",
        "03736368656d61206572726f723a206e6f2073756368207461626c653a2078",
    ),
];

/// The tables image holding one prepared transaction (`prepare_ops`, two
/// keys locked), as the whole cell section of the region.
const TABLES_IMAGE: &str =
    "sha256:19c1fea258831b62040f9d97622c8114eddd6ed7ef28e74c839e082301ad5d97";

/// SHA-256 over what every decoder makes of every truncation and every
/// one-byte change of every frame above: one `Debug` line per input, or
/// `-` where the decoder refused it. Pins each decoder's accept set and
/// its results on that corpus.
const MUTATIONS_DECODED: &str = "197888 inputs, 116601 accepted, \
    sha256:2f352dc139a962220e733d5f102423835487f1ccabf6f3c6983b6d00afecc04e";

fn pin(bytes: &[u8]) -> String {
    if bytes.len() <= 48 {
        hex(bytes)
    } else {
        format!("sha256:{}", Digest::of(bytes))
    }
}

#[test]
fn golden_frame_bytes() {
    let actual: Vec<(String, String)> = frames()
        .into_iter()
        .map(|f| (f.name, pin(&f.bytes)))
        .collect();
    let listing: String = actual
        .iter()
        .map(|(name, pin)| format!("    (\"{name}\", \"{pin}\"),\n"))
        .collect();
    let golden: Vec<(String, String)> = GOLDEN
        .iter()
        .map(|(n, p)| (n.to_string(), p.to_string()))
        .collect();
    assert_eq!(actual, golden, "frames now encode as:\n{listing}");
}

#[test]
fn golden_mutations_decode_as_pinned() {
    let mut h = Sha256::new();
    let (mut inputs, mut accepted) = (0u64, 0u64);
    for frame in frames() {
        for_each_mutation(&frame.bytes, |input| {
            inputs += 1;
            match frame.codec.decoded(input) {
                Some(value) => {
                    accepted += 1;
                    h.update(value.as_bytes());
                }
                None => h.update(b"-"),
            }
            h.update(b"\n");
        });
    }
    assert_eq!(
        format!(
            "{inputs} inputs, {accepted} accepted, sha256:{}",
            h.finish()
        ),
        MUTATIONS_DECODED
    );
}

#[test]
fn golden_tables_image() {
    let page = PAGE_SIZE as u64;
    let ring = Section {
        base: 0,
        len: 2 * page,
    };
    let cell = Section {
        base: 2 * page,
        len: 2 * page,
    };
    let state = Rc::new(RefCell::new(PagedState::new(4)));
    let mut app = XShardApp::with_sections(Box::new(NullApp::new(4)), state.clone(), ring, cell);
    let prepare = XMsg::Prepare {
        txid: 9,
        ops: prepare_ops(),
    };
    let (reply, _) = app.execute(ClientId(1), &prepare.encode(), &NonDet::default(), false);
    assert_eq!(XReply::decode(&reply), Some(XReply::PrepareOk { txid: 9 }));
    let image = state
        .borrow()
        .read_vec(cell.base, cell.len as usize)
        .expect("cell in bounds");
    assert_eq!(pin(&image), TABLES_IMAGE);
}
