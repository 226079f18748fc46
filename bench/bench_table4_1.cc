/** Table 4.1: simulated system parameters (paper + scaled sweep). */

#include <cstdio>

#include "system/config.hh"

int
main()
{
    using namespace wastesim;

    std::printf("Table 4.1: simulated system parameters "
                "(paper configuration)\n\n");
    SimParams paper;
    std::printf("%s\n", paper.describe().c_str());

    std::printf("Scaled sweep configuration (ratios preserved; see "
                "SimParams::scaled() in src/system/config.hh):\n\n");
    std::printf("%s\n", SimParams::scaled().describe().c_str());
    return 0;
}
