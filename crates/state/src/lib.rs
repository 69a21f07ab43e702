//! The PBFT state subsystem: a paged memory region with modify-notifications,
//! an incremental Merkle (hash) tree, copy-on-write checkpoints and tree-walk
//! state transfer.
//!
//! This reproduces the state machinery the paper describes in §2.1 and
//! critiques in §3.2:
//!
//! > "This implementation defines application 'state' as a single continuous
//! > virtual memory region. ... The library has a subsystem that manages the
//! > synchronization and checkpointing of this state using copy-on-write
//! > techniques and Merkle (hash) trees. ... A checkpoint message communicates
//! > this root hash to the rest of the replicas ... If a peer finds itself out
//! > of sync, an efficient tree walking algorithm is started from the root, to
//! > identify the (hopefully few) data pages that are different and have them
//! > retransmitted by the rest of the group."
//!
//! The application **must** call [`PagedState::modify`] before writing — the
//! same contract the PBFT library imposes. Unlike the original (where a
//! missed notification silently corrupts synchronization, the "havoc" of
//! §3.2), this implementation *enforces* the contract: writes to unnotified
//! pages return [`StateError::NotModified`].
//!
//! Pages are lazily allocated (`None` = all-zero page), which is the moral
//! equivalent of the sparse file trick the paper uses to give SQLite a large
//! fixed-size region without occupying disk (§3.2).
//!
//! A checkpoint boundary is reached by every replica of a group in the same
//! instant, so what it costs there is kept to a bounded step, not the
//! interval's pages: [`PagedState::hash_settled`] digests a page once it has sat
//! out a batch (at most once per interval) and parks the digest beside the
//! tree, [`PagedState::seal`] sets the interval aside at the boundary and
//! [`PagedState::checkpoint_step`] hashes what is still stale and folds all
//! the interval's leaves into the tree in steps of about one page hash
//! while the next interval runs ([`PagedState::refresh_digest`] is the same
//! work in one call), and the page table and the tree live in `Arc`-shared
//! chunks, so a [`Snapshot`] copies what changed since the previous one.
//! None of it is visible in a root, a snapshot or a transferred page.
//!
//! A state transfer is priced the same way, by the pages it moves: the
//! [`Fetcher`] asks for a whole tree level per message and keeps at most
//! [`PAGES_IN_FLIGHT`] page requests unanswered, a transferred page is
//! hashed once (the digest that validated it becomes its leaf),
//! [`PagedState::fold_installed`] folds the tree once per transfer, and a
//! blank region's tree is built once per page count and shared.
//!
//! The whole contract in one example — modify-before-write, digests over
//! pages, and the tree-walk transfer reconciling a diverged replica:
//!
//! ```
//! use pbft_state::{serve_fetch, Fetcher, PagedState, StateError};
//!
//! let mut up_to_date = PagedState::new(8);
//! // The modify-notification contract is enforced, not advisory:
//! assert!(matches!(
//!     up_to_date.write(4096, b"unnotified"),
//!     Err(StateError::NotModified { page: 1 })
//! ));
//! up_to_date.modify(4096, 10).unwrap();
//! up_to_date.write(4096, b"checkpoint").unwrap();
//! let root = up_to_date.refresh_digest();
//! let checkpoint = up_to_date.snapshot(1);
//!
//! // A diverged replica walks the tree and fetches only differing pages.
//! let mut behind = PagedState::new(8);
//! behind.refresh_digest();
//! let (mut fetcher, mut requests) = Fetcher::new(behind.tree(), root);
//! while let Some(req) = requests.pop() {
//!     let resp = serve_fetch(&checkpoint, &req);
//!     requests.extend(fetcher.on_response(behind.tree(), resp).unwrap());
//!     for (page, data, digest) in fetcher.take_ready() {
//!         behind.install_page(page, data, digest).unwrap();
//!     }
//! }
//! assert!(fetcher.is_complete());
//! behind.fold_installed();
//! assert_eq!(behind.tree().root(), root, "one differing page, transferred");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chunked;
mod codec;
mod merkle;
mod range;
mod region;
mod snapshot;
mod transfer;

pub use codec::{BlobCell, CodecError, SlotRing};
pub use merkle::MerkleTree;
pub use range::{RangeError, RangeExport};
pub use region::{
    PagedState, RootWork, Section, SharedPage, StateError, FOLDS_PER_PAGE_HASH, PAGE_SIZE,
};
pub use snapshot::Snapshot;
pub use transfer::{
    serve_fetch, FetchRequest, FetchResponse, Fetcher, TransferError, PAGES_IN_FLIGHT,
};
