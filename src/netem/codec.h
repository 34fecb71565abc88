// JSON codec of netem::LinkModel and netem::LossModels — the serialization
// the scenario codec's "link" and "loss" base fields, "links" axis and
// losses-axis entries embed.
//
// Canonical form (compact, one line), with every default omitted so the
// legacy pipe is the empty object `{}`:
//
//   {"loss": {"up": L, "down": L},
//    "queue": {"up": Q, "down": Q},
//    "path": {"up_bps": N, "down_bps": N, "up_delay_ms": N, "down_delay_ms": N,
//             "up_jitter_ms": N, "down_jitter_ms": N}}
//
//   L = {"drop": [I, ...], K} with at least one member; I >= 1 is a datagram
//       index (sorted and deduplicated on parse), checked before K
//   K = "bernoulli": {"rate": R}
//     | "gilbert": {"p": P, "r": R, "loss_good": G, "loss_bad": B}
//       (loss_good omitted at 0, loss_bad omitted at 1 — the classic
//        Gilbert channel)
//   Q = {"depth_pkts": N, "depth_bytes": N, "aqm": "codel"}
//       ({} = unbounded tail-drop FIFO; "aqm": "taildrop" is the omitted
//        default, "codel" is accepted but currently behaves as tail-drop)
//
// The parser additionally accepts a "both" direction key in "loss" and
// "queue" as shorthand for identical up/down models (the writer always
// expands to up/down). "up" is client->server, "down" server->client.
// Writing a parse of any accepted document reproduces the canonical bytes,
// so scenario round trips (export-grid --check) and the spec content-hash
// are stable.
#pragma once

#include <string>

#include "netem/model.h"

namespace quicer::core {
class JsonValue;
}

namespace quicer::netem {

/// Canonical compact JSON of `model` ("{}" for the default pipe).
std::string LinkModelJson(const LinkModel& model);

/// Canonical compact JSON of per-direction loss models, the "loss" member
/// above ({"up": L, "down": L}; "{}" when neither direction loses).
std::string LossModelsJson(const LossModels& models);

/// Parses LossModels ({"up"/"down"/"both": L}). On failure returns false and
/// fills `error` with an "up.drop[0]: ..."-style sub-path message.
bool ParseLossModels(const core::JsonValue& value, LossModels& out, std::string& error);

/// Parses a LinkModel from a JSON value (as documented above). On failure
/// returns false and fills `error` with a "loss.up.gilbert.p: ..."-style
/// sub-path message (no outer field prefix — the scenario parser adds it).
bool ParseLinkModel(const core::JsonValue& value, LinkModel& out, std::string& error);

}  // namespace quicer::netem
