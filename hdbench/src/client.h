// Keep-alive HTTP/1.1 client for the benchmark's closed-loop load.
//
// One client owns one connection and sends one request at a time, waiting
// for each reply (callers are query planners that block on their answer).
// Built on util/socket and net/http's HttpResponseParser; a transport
// failure drops the connection and the next request reconnects.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "util/socket.h"

namespace hdbench {

struct Reply {
  bool transport_ok = false;  ///< false: connect/send/recv/parse failed
  int status = 0;
  std::string server_timing;  ///< Server-Timing header, empty when absent
  std::string body;
  std::string error;          ///< transport failure detail
  double seconds = 0.0;       ///< request written → reply parsed
};

class KeepAliveClient {
 public:
  KeepAliveClient(std::string host, int port, double read_timeout_seconds);

  /// Sends `POST target` with `body` on the held connection.
  Reply Post(const std::string& target, const std::string& body);

 private:
  std::string host_;
  int port_;
  double read_timeout_seconds_;
  htd::util::Socket socket_;
  std::string wire_;  ///< request buffer, reused across requests
};

/// The exact bytes KeepAliveClient::Post writes for one request.
std::string PostRequestBytes(const std::string& host, const std::string& target,
                             const std::string& body);

/// Parses "name;dur=ms, name;dur=ms" into (name, milliseconds) pairs;
/// entries without a dur are skipped.
std::vector<std::pair<std::string, double>> ParseServerTiming(
    const std::string& header);

}  // namespace hdbench
