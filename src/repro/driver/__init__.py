"""Block-device drivers: UIFD (DeLiBA-K), NBD (DeLiBA-1/2), stock RBD.

The three share one datapath below their front ends
(:class:`~repro.driver.datapath.BlockDriver`).
"""

from .cmac_monitor import CmacNetworkMonitor, FlowStats
from .datapath import BlockDriver
from .nbd import DELIBA1_NBD, DELIBA2_NBD, NbdConfig, NbdDriver
from .rbd_kmod import RbdKmodConfig, RbdKmodDriver
from .uifd import UifdConfig, UifdDriver

__all__ = [
    "BlockDriver",
    "CmacNetworkMonitor",
    "DELIBA1_NBD",
    "FlowStats",
    "DELIBA2_NBD",
    "NbdConfig",
    "NbdDriver",
    "RbdKmodConfig",
    "RbdKmodDriver",
    "UifdConfig",
    "UifdDriver",
]
