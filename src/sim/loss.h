// Direction of travel across the emulated path. The paper (§3) counts the
// datagrams it drops per direction; the drops are netem data
// (netem::LossModel::drop_indices).
#pragma once

namespace quicer::sim {

/// Direction of travel across the emulated path.
enum class Direction { kClientToServer = 0, kServerToClient = 1 };

constexpr const char* ToString(Direction d) {
  return d == Direction::kClientToServer ? "client->server" : "server->client";
}

}  // namespace quicer::sim
