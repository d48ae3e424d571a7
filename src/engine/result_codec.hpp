// The record of an engine::Result in the persistent result store
// (store/result_store.hpp).
//
// The record is the response body plus a small "detail" object:
//
//   {"v":2,<body>,"detail":{"lower_bound","upper_bound","search_nodes",
//                           "allocation_text","program":{"setup","body",
//                           "registers","modify_registers","addressing"},
//                           "sim":{"verified","setup_instructions"}}}
//
// with each instruction of "setup" and "body" a dense array [opcode,
// reg, value, access, next_iteration (0/1), mr].
//
// <body> is what engine::append_result_members writes — the bytes of a
// response after its "machine" member (engine/serialize.hpp), from the
// same writer. "detail" carries only what the response leaves out and
// a later process reads: phase 1's search figures, the allocation text
// and the address program the `run` text report prints, and the
// simulator's own verdict and setup count. Three kinds of fields are
// not stored:
//
//  * kernel and machine: the fingerprint key ignores their names, so
//    the engine re-applies the *requesting* kernel/machine on a store
//    hit, exactly as it does on a RAM hit;
//  * wall-clock measurements (stage_ms, total_ms,
//    stats.phase2_nodes_per_sec): never serialized, so a store-served
//    response is byte-identical to the cold response;
//  * per-call flags (cache_hit, store_hit): properties of the lookup,
//    not the result.
//
// The encoding is versioned ("v") independently of the store's record
// framing; decode_result throws dspaddr::Error on any malformed or
// foreign-version value (version 1 records included), which the engine
// treats as a miss and recomputes (the re-append then shadows the bad
// record).
#pragma once

#include <string>
#include <string_view>

#include "engine/engine.hpp"

namespace dspaddr::engine {

/// Compact JSON line carrying every non-excluded field of `result`.
std::string encode_result(const Result& result);

/// Inverse of encode_result. The returned Result carries an empty
/// kernel/machine (the caller re-decorates from its request). Throws
/// dspaddr::Error on malformed input (negative counts and out-of-range
/// opcodes or addressing modes included) or a foreign codec version.
Result decode_result(std::string_view encoded);

}  // namespace dspaddr::engine
