// Earlier names of the pipelined client, kept for perfbench/src/stack.cpp.
#pragma once

#include "cricket/client.hpp"

namespace cricket::core {

using AsyncRemoteCudaApi = RemoteCudaApi;
using AsyncClientConfig = ClientConfig;

}  // namespace cricket::core
