//! # minion-cobs
//!
//! Consistent Overhead Byte Stuffing (COBS) encoding and the uCOBS record
//! framing built on it (paper §5): each datagram is COBS-encoded (removing
//! all zero bytes at ≤0.4% expansion) and bracketed by a zero marker byte on
//! *both* ends, making records self-delimiting and recoverable from
//! out-of-order TCP stream fragments. A length-prefixed (TLV) framer is also
//! provided as the in-order baseline used in the paper's comparisons.
//!
//! The codec works a run at a time: [`find_marker`] locates zero bytes a
//! 64-bit word at a time, and encoding, decoding and scanning copy or skip
//! whole zero-free runs instead of single bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod frame;

pub use encode::{decode, encode, find_marker, max_encoded_len, overhead_ratio, CobsError, MARKER};
pub use frame::{
    decode_record, frame_datagram, framing_overhead, scan_records, ScannedRecord, TlvFramer,
};
