/**
 * @file
 * Simulation parameters (Table 4.1) and the nine protocol
 * configurations studied in the paper (Sections 3.2 and 3.3).
 */

#ifndef WASTESIM_SYSTEM_CONFIG_HH
#define WASTESIM_SYSTEM_CONFIG_HH

#include <string>

#include "common/topology.hh"
#include "common/types.hh"
#include "dram/dram_timing.hh"

namespace wastesim
{

/** The protocols of Sections 3.2/3.3, in figure order. */
enum class ProtocolName
{
    MESI,        //!< baseline GEMS-style directory MESI
    MMemL1,      //!< MESI + MC->L1 transfer via unblock+data
    DeNovo,      //!< baseline DeNovo line protocol + write combining
    DFlexL1,     //!< DeNovo + Flex for on-chip responses
    DValidateL2, //!< DeNovo + L2 write-validate + dirty-words-only WB
    DMemL1,      //!< DValidateL2 + MC->L1 transfer
    DFlexL2,     //!< DMemL1 + Flex incl. memory (same-DRAM-row rule)
    DBypL2,      //!< DFlexL2 + L2 response bypass
    DBypFull,    //!< DBypL2 + L2 request bypass (Bloom filters)
    NumProtocols
};

constexpr unsigned numProtocols =
    static_cast<unsigned>(ProtocolName::NumProtocols);

/** Printable name as used in the figures. */
const char *protocolName(ProtocolName p);

/** Parse a figure name back to a ProtocolName; false if unknown. */
bool protocolFromName(const std::string &s, ProtocolName &out);

/** All nine protocols in figure order. */
extern const ProtocolName allProtocols[numProtocols];

/** Feature flags decoded from a ProtocolName. */
struct ProtocolConfig
{
    enum class Family { Mesi, DeNovo };

    Family family = Family::Mesi;
    bool memToL1 = false;        //!< MC->L1 transfer (MMemL1 / DMemL1+)
    bool flexL1 = false;         //!< Flex for on-chip responses
    bool flexL2 = false;         //!< Flex extended to memory
    bool l2WriteValidate = false; //!< no fetch-on-write at the L2
    bool l2DirtyWbOnly = false;  //!< dirty-words-only L2->mem WB
    bool respBypass = false;     //!< L2 response bypass
    bool reqBypass = false;      //!< L2 request bypass (Bloom)

    static ProtocolConfig make(ProtocolName p);

    bool isMesi() const { return family == Family::Mesi; }
    bool isDeNovo() const { return family == Family::DeNovo; }
};

/** Table 4.1 system parameters (in 2 GHz core cycles). */
struct SimParams
{
    /** System geometry: mesh dims, tile count, MC placement.  The
     *  default is the paper's 4x4 / 4-controller system. */
    Topology topo;

    // Caches.
    unsigned l1Sets = 64;        //!< 32 KB, 8-way, 64 B lines
    unsigned l1Ways = 8;
    unsigned l2Sets = 256;       //!< 256 KB slice, 16-way
    unsigned l2Ways = 16;
    Tick l1Latency = 1;
    Tick l2Latency = 8;

    // Network.
    Tick linkLatency = 3;        //!< per hop

    // Cores.
    unsigned writeBufferEntries = 32; //!< pending writes per core
    Tick wcTimeout = 10000;      //!< write-combining flush timeout

    // Protocol plumbing.
    Tick nackRetryDelay = 20;    //!< MESI L1 retry after a NACK
    Tick loadRetryDelay = 500;   //!< DeNovo partial-response retry
    unsigned bloomFilters = 32;  //!< request-bypass filters per slice

    // DRAM.
    DramTiming dram;

    /**
     * Proportionally scaled-down hierarchy for the fast sweep: 4 KB
     * L1s and 32 KB L2 slices (512 KB total), preserving Table 4.1's
     * associativities and the L2:L1 capacity ratio of 8.  The bundled
     * benchmark inputs are sized against this hierarchy so that the
     * paper's working-set relationships (radix buckets > L1, FFT /
     * radix / kD-tree datasets >= L2, LU / barnes << L2) hold.
     */
    static SimParams
    scaled()
    {
        SimParams p;
        p.l1Sets = 8;        // 4 KB, 8-way
        p.l2Sets = 32;       // 32 KB slice, 16-way
        p.bloomFilters = 4;  // copy traffic amortizes like the caches
        return p;
    }

    /** Human-readable parameter dump (bench_table4_1). */
    std::string describe() const;
};

} // namespace wastesim

#endif // WASTESIM_SYSTEM_CONFIG_HH
