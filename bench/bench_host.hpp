// Host fingerprint for the BENCH_*.json files the benches write: the same
// block campaign_bench prints, so every recorded number says which
// machine, SIMD backend, compiler and build type produced it.
#pragma once

#include <string>
#include <thread>

#include "logic/simd.hpp"

#ifndef CPSINW_BENCH_BUILD_TYPE
#define CPSINW_BENCH_BUILD_TYPE "unknown"
#endif

namespace cpsinw::bench {

/// `"host":{"nproc":..,"simd":..,"compiler":..,"build_type":..}` — a JSON
/// member, ready to splice into an object.
inline std::string host_json_member() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "\"host\":{\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"simd\":\"" +
         logic::simd::backend_name(logic::simd::active_backend()) +
         "\",\"compiler\":\"" + compiler + "\",\"build_type\":\"" +
         CPSINW_BENCH_BUILD_TYPE + "\"}";
}

}  // namespace cpsinw::bench
