import os
import sys

# the helpers under test import alphatest from the checkout's src/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
